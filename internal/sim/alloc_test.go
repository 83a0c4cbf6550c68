package sim

import (
	"runtime"
	"testing"

	"flywheel/internal/cacti"
)

// TestAllocsPerInstBudget pins the steady-state heap behavior of every
// timing core: a warm run (workload snapshot, dynamic trace and an idle
// machine of its shape already there) must stay within a small allocation
// budget per simulated instruction and a byte budget per run. The
// flywheel and regalloc budgets cover the trace-creation and replay
// machinery, which recycles builders, block storage and traceRuns instead
// of allocating per trace. The byte budgets are a quarter of what building
// a fresh machine cost per 40k-instruction run (288 KB baseline, 563 KB
// flywheel, 555 KB regalloc): a run that stops reusing its pooled machine,
// or a structure whose Reset reallocates, fails here long before it costs
// measurable wall-clock in the repository benchmark (bash perfbench/run.sh).
func TestAllocsPerInstBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation budgets are measured without -short/-race")
	}
	cases := []struct {
		arch   Arch
		budget float64 // allocs per retired instruction
		bytes  uint64  // bytes allocated per run
	}{
		{ArchBaseline, 0.05, 72 << 10},
		{ArchFlywheel, 0.10, 140 << 10},
		{ArchRegAlloc, 0.10, 138 << 10},
	}
	for _, tc := range cases {
		cfg := RunConfig{
			Workload: "ijpeg", Arch: tc.arch, Node: cacti.Node130,
			FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 40_000,
		}
		warm, err := Run(cfg) // prime the snapshot and trace caches and the machine pool
		if err != nil {
			t.Fatal(err)
		}
		if warm.Retired == 0 {
			t.Fatalf("%v: no instructions retired", tc.arch)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		perInst := allocs / float64(warm.Retired)
		// AllocsPerRun adds one warm-up call to its runs.
		perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		t.Logf("%v: %.0f allocs/run, %.4f allocs/inst, %d B/run", tc.arch, allocs, perInst, perRun)
		if perInst > tc.budget {
			t.Errorf("%v: %.4f allocs/inst exceeds the %.2f budget", tc.arch, perInst, tc.budget)
		}
		if perRun > tc.bytes {
			t.Errorf("%v: %d B/run exceeds the %d B budget", tc.arch, perRun, tc.bytes)
		}
	}
}
