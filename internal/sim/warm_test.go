package sim

import (
	"reflect"
	"runtime"
	"testing"

	"flywheel/internal/cacti"
	"flywheel/internal/emu"
	"flywheel/internal/pipe"
	"flywheel/internal/trace"
	"flywheel/internal/workload"
	"flywheel/internal/workload/synth"
)

func snapCfg(arch Arch, node cacti.Node) RunConfig {
	return RunConfig{
		Workload: "ijpeg", Arch: arch, Node: node,
		FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 5_000,
	}
}

// TestRunsShareOneWarmSnapshot pins the O(1)-setup property: runs of one
// workload at any architecture or node all start from clones of the single
// snapshot workload.WarmState froze, so the initialization phase executes
// once per process for the architectural state. The trace cache is off so
// every run clones the snapshot into a live emulator.
func TestRunsShareOneWarmSnapshot(t *testing.T) {
	prev := TraceCachePolicy()
	SetTraceCachePolicy(trace.Policy{Disabled: true})
	t.Cleanup(func() { SetTraceCachePolicy(prev) })

	w, err := workload.Get("ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := w.WarmState()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Retired() == 0 {
		t.Fatal("ijpeg warm state retired nothing; want a fast-forwarded initialization phase")
	}
	start := snap.NewMachine()
	for _, arch := range []Arch{ArchBaseline, ArchFlywheel, ArchRegAlloc} {
		for _, node := range []cacti.Node{cacti.Node130, cacti.Node90} {
			err := replay(snapCfg(arch, node), func(_ *workload.Workload, stream pipe.InstSource) error {
				m := stream.(*emu.Stream).Machine()
				if m.PC != start.PC || m.Retired != start.Retired || m.IntRegs != start.IntRegs {
					t.Errorf("%v@%v: run starts at pc %#x after %d instructions, want the snapshot's %#x after %d",
						arch, node, m.PC, m.Retired, start.PC, start.Retired)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if again, _ := w.WarmState(); again != snap {
		t.Fatal("WarmState froze a second snapshot: initialization ran twice")
	}
}

// TestWarmTemplateBuiltOncePerConfig pins how often the initialization
// phase is re-executed for warming: once per (workload, hierarchy,
// predictor) configuration, however many runs, architectures, boosts,
// budgets and nodes use that configuration.
func TestWarmTemplateBuiltOncePerConfig(t *testing.T) {
	resetWarmStates()
	w := workload.MustGet("ijpeg")
	want := map[warmStateKey]bool{}
	built := map[warmStateKey]*warmState{}
	for round := 0; round < 2; round++ {
		for _, arch := range []Arch{ArchBaseline, ArchFlywheel, ArchRegAlloc} {
			for _, node := range []cacti.Node{cacti.Node130, cacti.Node90} {
				cfg := snapCfg(arch, node)
				cfg.MaxInstructions += uint64(round) * 1_000
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				period := cacti.BaselinePeriodPS(node)
				key := warmStateKey{workload: w.Name}
				if arch == ArchBaseline {
					bc := baselineConfig(cfg, period)
					key.hier, key.branch = bc.Mem, bc.Branch
				} else {
					fc := flywheelConfig(cfg, period)
					key.hier, key.branch = fc.Mem, fc.Branch
				}
				want[key] = true
			}
		}
		warmStates.Range(func(k, e any) bool {
			key, st := k.(warmStateKey), e.(*warmStateEntry).st
			if !want[key] {
				t.Errorf("round %d: template for a configuration no run uses: %+v", round, key)
			}
			if prev, ok := built[key]; ok && prev != st {
				t.Errorf("round %d: template for %+v was built again", round, key)
			}
			built[key] = st
			return true
		})
	}
	if len(built) != len(want) {
		t.Fatalf("%d templates built for %d distinct configurations", len(built), len(want))
	}
}

// TestWarmingRetainsNoInitializationTrace bounds what warming leaves on the
// heap: the snapshot and one template per configuration, nothing that grows
// with the length of the initialization phase. The long-stride stress
// profile at 16 passes retires ~655k instructions before its warm label;
// keeping one 48-byte emu.Trace per instruction would pin over 30 MB.
func TestWarmingRetainsNoInitializationTrace(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("heap budgets are measured without -short/-race")
	}
	p := synth.LongStrideFP(7)
	p.Passes = 16
	wl, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Register(wl); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(RunConfig{Workload: p.Name(), Arch: ArchBaseline, Node: cacti.Node130, MaxInstructions: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	snap, err := workload.MustGet(p.Name()).WarmState()
	if err != nil {
		t.Fatal(err)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%s: %d init instructions, %d retired, heap grew %.1f MB",
		p.Name(), snap.Retired(), res.Retired, float64(grew)/(1<<20))
	if snap.Retired() < 500_000 {
		t.Fatalf("%s initializes in %d instructions; the bound needs a long initialization phase", p.Name(), snap.Retired())
	}
	if grew >= 8<<20 {
		t.Fatalf("warming %s retained %.1f MB, want < 8 MB", p.Name(), float64(grew)/(1<<20))
	}
}

// resetWarmStates drops the warmed predictor/hierarchy templates, so the
// next run of each configuration builds its template again.
func resetWarmStates() {
	warmStates.Range(func(k, _ any) bool {
		warmStates.Delete(k)
		return true
	})
}

// TestWarmTemplateDeterminism checks that a run seeded from an existing
// warm template is numerically identical to the run that built it: the
// snapshot/seed path must not perturb any observable.
func TestWarmTemplateDeterminism(t *testing.T) {
	for _, arch := range []Arch{ArchBaseline, ArchFlywheel, ArchRegAlloc} {
		resetWarmStates()
		cold, err := Run(snapCfg(arch, cacti.Node130))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Run(snapCfg(arch, cacti.Node130))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("%v: template-seeded run differs from cold run:\ncold: %+v\nwarm: %+v",
				arch, cold, warm)
		}
	}
}

// TestRunSourceRepeatDeterministic checks the ad-hoc-program path: every
// call assembles and loads the program afresh, and repeated runs of one
// source are identical.
func TestRunSourceRepeatDeterministic(t *testing.T) {
	src := `
        li   r1, 64
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt
`
	cfg := RunConfig{Arch: ArchBaseline, Node: cacti.Node130}
	r1, err := RunSource("repeat", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSource("repeat", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Retired == 0 {
		t.Fatal("RunSource retired nothing")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("repeated RunSource differs:\nfirst:  %+v\nsecond: %+v", r1, r2)
	}
}

// TestRunSteadyStateAllocs is the whole-pipeline allocation regression
// fence: a cache-served simulation of tens of thousands of instructions
// must stay in the same few-thousand-allocation band (fixed core setup),
// nowhere near the ~5 allocations per instruction of the pre-arena design.
// gcc starts thousands of EC traces per run, so a per-trace allocation in
// the Flywheel replay path shows up there first.
func TestRunSteadyStateAllocs(t *testing.T) {
	const instructions = 40_000
	for _, wl := range []string{"ijpeg", "gcc"} {
		for _, arch := range []Arch{ArchBaseline, ArchFlywheel, ArchRegAlloc} {
			cfg := RunConfig{
				Workload: wl, Arch: arch, Node: cacti.Node130,
				MaxInstructions: instructions,
			}
			// Prime the warm template and trace so the measurement sees
			// steady state.
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)

			allocs := after.Mallocs - before.Mallocs
			perInst := float64(allocs) / float64(res.Retired)
			t.Logf("%s/%v: %d allocs for %d retired (%.4f allocs/inst)", wl, arch, allocs, res.Retired, perInst)
			// Fixed setup (core structures, arena, result) plus slack; the
			// budget is ~0.2 allocs/inst where the old hot loop paid ~5.
			if perInst > 0.2 {
				t.Errorf("%s/%v: steady-state allocations regressed: %.3f allocs/inst (%d total), want <= 0.2",
					wl, arch, perInst, allocs)
			}
		}
	}
}
