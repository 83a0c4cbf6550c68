package sim

import (
	"errors"
	"reflect"
	"testing"

	"flywheel/internal/cacti"
	"flywheel/internal/emu"
	"flywheel/internal/pipe"
	"flywheel/internal/workload"
)

// panicAfter delivers n records of src, then panics like a timing core
// that hits a bug mid-simulation.
type panicAfter struct {
	src pipe.InstSource
	n   int
}

func (p *panicAfter) Next() (emu.Trace, bool) {
	if p.n == 0 {
		panic("injected: simulation failed mid-run")
	}
	p.n--
	return p.src.Next()
}

// reuseSource is an ad-hoc program for RunSource: strided stores and loads
// over 16 KiB and a data-dependent branch. RunSource seeds nothing from a
// warm template, so a structure its machine's reset left dirty shows.
const reuseSource = `
	li   r20, 6
pass:
	la   r1, buf
	li   r2, 2048
loop:
	ld   r3, 0(r1)
	add  r3, r3, r2
	andi r4, r3, 3
	bnez r4, skip
	addi r3, r3, 1
skip:
	sd   r3, 0(r1)
	addi r1, r1, 8
	addi r2, r2, -1
	bnez r2, loop
	addi r20, r20, -1
	bnez r20, pass
	halt
.data
buf:
	.space 16384
`

// TestRunsReuseIdleMachine: a finished run returns its machine, the next
// run of the same shape (another workload, architecture, node, clock
// plan, predictor and prefetcher) takes that machine instead of building
// one, and the reused machine simulates exactly like a new one, for A,
// then B, then A on one machine of each shape.
func TestRunsReuseIdleMachine(t *testing.T) {
	type run struct {
		name string
		do   func() (Result, error)
	}
	workloadRun := func(cfg RunConfig) run {
		return run{cfg.Workload + "/" + cfg.Arch.String(), func() (Result, error) { return Run(cfg) }}
	}
	sourceRun := func(cfg RunConfig) run {
		return run{"RunSource/" + cfg.Arch.String(), func() (Result, error) { return RunSource("reuse", reuseSource, cfg) }}
	}
	for _, pair := range [][2]run{
		{
			workloadRun(RunConfig{Workload: "gcc", Arch: ArchFlywheel, Node: cacti.Node130, FEBoostPct: 50, BEBoostPct: 100, MaxInstructions: 20_000}),
			workloadRun(RunConfig{Workload: "equake", Arch: ArchRegAlloc, Node: cacti.Node90, Predictor: "tage", Prefetcher: "delta", MaxInstructions: 20_000}),
		},
		{
			workloadRun(RunConfig{Workload: "vpr", Arch: ArchBaseline, Node: cacti.Node130, Predictor: "tage", Prefetcher: "delta", MaxInstructions: 20_000}),
			sourceRun(RunConfig{Arch: ArchBaseline, Node: cacti.Node90, ExtraFrontEndStages: 2, PipelinedWakeupSelect: true}),
		},
		{
			workloadRun(RunConfig{Workload: "mesa", Arch: ArchFlywheel, Node: cacti.Node130, Prefetcher: "delta", MaxInstructions: 20_000}),
			sourceRun(RunConfig{Arch: ArchFlywheel, Node: cacti.Node60, FEBoostPct: 100, BEBoostPct: 50}),
		},
	} {
		var want [2]Result
		for k, r := range pair {
			ResetMachinePool()
			res, err := r.do()
			if err != nil {
				t.Fatal(err)
			}
			if res.Retired == 0 {
				t.Fatalf("%s retired nothing", r.name)
			}
			want[k] = res
		}
		idle := func() machine {
			t.Helper()
			machines.mu.Lock()
			defer machines.mu.Unlock()
			if len(machines.idle) != 1 {
				t.Fatalf("%d idle machines, want 1", len(machines.idle))
			}
			return machines.idle[0].m
		}
		m := idle()
		for _, k := range []int{0, 1, 0} {
			got, err := pair[k].do()
			if err != nil {
				t.Fatal(err)
			}
			if idle() != m {
				t.Fatalf("%s built a new machine instead of reusing the idle one", pair[k].name)
			}
			if !reflect.DeepEqual(got, want[k]) {
				t.Errorf("%s after %s on a reused machine differs from a new machine:\n got  %+v\n want %+v",
					pair[k].name, pair[1-k].name, got, want[k])
			}
		}
	}
}

// TestResultIsPureFunctionOfJobAfterPanic: a run that panics mid-simulation
// (the lab recovers panics into error results) or fails does not return its
// machine, which may have stopped anywhere in a cycle, so the next run of
// that shape still matches a run on a new machine.
func TestResultIsPureFunctionOfJobAfterPanic(t *testing.T) {
	cfg := RunConfig{Workload: "gcc", Arch: ArchFlywheel, Node: cacti.Node130, MaxInstructions: 20_000}
	ResetMachinePool()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ncfg, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := timingOf(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(src func(pipe.InstSource) pipe.InstSource, fn func(machine) error) (err error, panicked any) {
		defer func() { panicked = recover() }()
		return replay(ncfg, func(w *workload.Workload, stream pipe.InstSource) error {
			return d.use(src(stream), w, fn)
		}), nil
	}
	runToEnd := func(m machine) error {
		_, err := m.Run()
		return err
	}
	injected := errors.New("injected run error")
	cases := []struct {
		name string
		src  func(pipe.InstSource) pipe.InstSource
		fn   func(machine) error
	}{
		{"panic mid-run", func(s pipe.InstSource) pipe.InstSource { return &panicAfter{src: s, n: 10_000} }, runToEnd},
		{"error after the run", func(s pipe.InstSource) pipe.InstSource { return s }, func(m machine) error {
			if err := runToEnd(m); err != nil {
				return err
			}
			return injected
		}},
	}
	for _, tc := range cases {
		if n := machines.len(); n != 1 {
			t.Fatalf("%s: %d idle machines before the run, want 1", tc.name, n)
		}
		err, panicked := run(tc.src, tc.fn)
		if panicked == nil && !errors.Is(err, injected) {
			t.Fatalf("%s: run neither panicked nor failed (err %v)", tc.name, err)
		}
		if n := machines.len(); n != 0 {
			t.Errorf("%s: the failed run returned its machine (%d idle)", tc.name, n)
		}
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the next run differs from a run on a new machine:\n got  %+v\n want %+v", tc.name, got, want)
		}
	}
}
