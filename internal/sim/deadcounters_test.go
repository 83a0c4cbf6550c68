package sim

import (
	"reflect"
	"testing"

	"flywheel/internal/workload"
)

// uncounted lists the counters no paper kernel moves at the budget of
// TestEveryCounterCounts, each with the reason. A counter that no core
// increments at all is deleted from pipe.Counters, not listed here.
var uncounted = map[string]string{
	"Redistributions":     "rename pools are checked every 500k back-end cycles; core's TestFlywheelRedistributionTriggers shortens the interval",
	"EC.Invalidations":    "the Execution Cache is invalidated only by a pool redistribution",
	"ReplayStallResource": "the 256-entry ROB and 64-entry LSQ never fill in trace execution; core's TestFlywheelReplayResourceStalls shrinks the ROB",
	"L1I.Writes":          "the instruction cache is never written (mem.CacheStats serves all three caches)",
	"L1I.WriteMiss":       "the instruction cache is never written",
	"L1I.Writebacks":      "the instruction cache is never written",
	"L1D.Writebacks":      "every kernel's data fits the warmed L1D, so no dirty line is evicted (none at 300k either)",
	"L2.Writes":           "the L2 is written only by L1D writebacks",
	"L2.WriteMiss":        "the L2 is written only by L1D writebacks",
	"L2.Writebacks":       "the L2 is written only by L1D writebacks",
	"Prefetch.Late":       "no kernel demands a delta-prefetched line within the 4-access fill delay (none at 300k either); mem's TestHierarchyLatePrefetch does",
}

// TestEveryCounterCounts finds dead counters: over the paper kernels at
// 20k instructions, on all three machines with the default frontend and
// with TAGE plus delta prefetching, every counter of the record is nonzero
// in at least one run, except the listed ones, which are zero in every
// run.
func TestEveryCounterCounts(t *testing.T) {
	counted := map[string]bool{}
	var paths []string
	for _, wl := range workload.Names() {
		for _, arch := range []Arch{ArchBaseline, ArchFlywheel, ArchRegAlloc} {
			for _, fe := range [][2]string{{"", ""}, {"tage", "delta"}} {
				tm, err := Simulate(RunConfig{Workload: wl, Arch: arch, MaxInstructions: 20_000, Predictor: fe[0], Prefetcher: fe[1]})
				if err != nil {
					t.Fatal(err)
				}
				counterFields(reflect.ValueOf(tm.c), "", func(p string, v reflect.Value) {
					if _, ok := counted[p]; !ok {
						paths = append(paths, p)
					}
					counted[p] = counted[p] || !v.IsZero()
				})
			}
		}
	}
	for _, p := range paths {
		_, excepted := uncounted[p]
		switch {
		case !counted[p] && !excepted:
			t.Errorf("counter %s is zero in every run: delete it, or list it in uncounted with the reason", p)
		case counted[p] && excepted:
			t.Errorf("counter %s counts now: drop it from uncounted", p)
		}
	}
	for p := range uncounted {
		if _, ok := counted[p]; !ok {
			t.Errorf("uncounted names %s, which is not a counter of the record", p)
		}
	}
}
