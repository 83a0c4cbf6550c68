package sim

import (
	"testing"

	"flywheel/internal/cacti"
)

// TestAllocsPerInstBudget pins the steady-state heap behavior of every
// timing core: a warm run (workload snapshot and dynamic trace already
// cached) must stay within a small allocation budget per simulated
// instruction. The flywheel and regalloc budgets cover the trace-creation
// and replay machinery, which recycles builders, block storage and
// traceRuns instead of allocating per trace; a regression here shows up
// long before it costs measurable wall-clock in the repository benchmark
// (bash perfbench/run.sh).
func TestAllocsPerInstBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation budgets are measured without -short/-race")
	}
	cases := []struct {
		arch   Arch
		budget float64 // allocs per retired instruction
	}{
		{ArchBaseline, 0.05},
		{ArchFlywheel, 0.10},
		{ArchRegAlloc, 0.10},
	}
	for _, tc := range cases {
		cfg := RunConfig{
			Workload: "ijpeg", Arch: tc.arch, Node: cacti.Node130,
			FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 40_000,
		}
		warm, err := Run(cfg) // prime the snapshot and trace caches
		if err != nil {
			t.Fatal(err)
		}
		if warm.Retired == 0 {
			t.Fatalf("%v: no instructions retired", tc.arch)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		perInst := allocs / float64(warm.Retired)
		t.Logf("%v: %.0f allocs/run, %.4f allocs/inst", tc.arch, allocs, perInst)
		if perInst > tc.budget {
			t.Errorf("%v: %.4f allocs/inst exceeds the %.2f budget", tc.arch, perInst, tc.budget)
		}
	}
}
