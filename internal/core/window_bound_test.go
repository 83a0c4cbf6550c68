package core_test

import (
	"fmt"
	"testing"

	"flywheel/internal/core"
	"flywheel/internal/sim"
)

// TestOracleWindowBounded runs turb3d on the Flywheel and RegAlloc cores.
// At FE/BE 50/50 the Flywheel replay pairs records far ahead of ones it
// leaves unconsumed (a dense window grew to 31,144 records at 40k and
// 55,720 at 300k). The dense region must stay within its preallocated
// capacity, and the stranded list within the peak these runs reach today:
// a change that strands more, or keeps the dense region growing, fails
// here. A model change that moves the peak re-measures it.
func TestOracleWindowBounded(t *testing.T) {
	const maxDense = 1024 // windowRecords
	for _, tc := range []struct {
		n           uint64
		maxStranded int
	}{{40_000, 228}, {300_000, 3710}} {
		if tc.n > 40_000 && (testing.Short() || raceEnabled) {
			continue
		}
		peak := 0
		for _, arch := range []sim.Arch{sim.ArchFlywheel, sim.ArchRegAlloc} {
			for _, boost := range [][2]int{{0, 0}, {50, 50}, {100, 50}} {
				cfg := sim.RunConfig{Workload: "turb3d", Arch: arch, FEBoostPct: boost[0], BEBoostPct: boost[1], MaxInstructions: tc.n}
				t.Run(fmt.Sprintf("%s/n=%d/fe=%d/be=%d", arch, tc.n, boost[0], boost[1]), func(t *testing.T) {
					dense, stranded := 0, 0
					stop := core.WatchWindow(func(d, s int) {
						dense, stranded = max(dense, d), max(stranded, s)
					})
					defer stop()
					if _, err := sim.Simulate(cfg); err != nil {
						t.Fatal(err)
					}
					t.Logf("peak dense region %d records, stranded list %d", dense, stranded)
					if dense > maxDense {
						t.Errorf("dense region reached %d records, want at most %d", dense, maxDense)
					}
					if stranded > tc.maxStranded {
						t.Errorf("stranded list reached %d records, want at most %d", stranded, tc.maxStranded)
					}
					peak = max(peak, stranded)
				})
			}
		}
		// The bound is met with equality somewhere: a run that stops
		// stranding records means the workload no longer exercises it.
		if peak != tc.maxStranded {
			t.Errorf("n=%d: peak stranded list %d, want exactly %d (re-measure after a model change)", tc.n, peak, tc.maxStranded)
		}
	}
}
