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
)

func snapCfg(arch Arch, node cacti.Node) RunConfig {
	return RunConfig{
		Workload: "ijpeg", Arch: arch, Node: node,
		FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 5_000,
	}
}

// TestRunsShareOneWarmSnapshot pins the O(1)-setup property: runs of one
// workload at any architecture or node all start from clones of the single
// snapshot workload.WarmState froze, and all warm from its single log, so
// the initialization phase executes once per process. The trace cache is
// off so every run clones the snapshot into a live emulator.
func TestRunsShareOneWarmSnapshot(t *testing.T) {
	prev := TraceCachePolicy()
	SetTraceCachePolicy(trace.Policy{Disabled: true})
	t.Cleanup(func() { SetTraceCachePolicy(prev) })

	w, err := workload.Get("ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	snap, log, err := w.WarmState()
	if err != nil {
		t.Fatal(err)
	}
	if log == nil || snap.Retired() == 0 {
		t.Fatalf("ijpeg warm state: %d retired, log %v; want a recorded initialization phase", snap.Retired(), log)
	}
	start := snap.NewMachine()
	for _, arch := range []Arch{ArchBaseline, ArchFlywheel, ArchRegAlloc} {
		for _, node := range []cacti.Node{cacti.Node130, cacti.Node90} {
			err := replay(snapCfg(arch, node), func(_ *workload.Workload, got *pipe.WarmLog, stream pipe.InstSource) error {
				if got != log {
					t.Errorf("%v@%v: run warms from a second log", arch, node)
				}
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
	if again, _, _ := w.WarmState(); again != snap {
		t.Fatal("WarmState froze a second snapshot: initialization ran twice")
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
func TestRunSteadyStateAllocs(t *testing.T) {
	const instructions = 40_000
	cfg := RunConfig{
		Workload: "ijpeg", Arch: ArchBaseline, Node: cacti.Node130,
		MaxInstructions: instructions,
	}
	// Prime the warm template and trace so the measurement sees steady state.
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
	t.Logf("run: %d allocs for %d retired (%.4f allocs/inst)", allocs, res.Retired, perInst)
	// Fixed setup (core structures, arena, result) plus slack; the budget
	// is ~0.2 allocs/inst where the old hot loop paid ~5.
	if perInst > 0.2 {
		t.Fatalf("steady-state allocations regressed: %.3f allocs/inst (%d total), want <= 0.2",
			perInst, allocs)
	}
}
