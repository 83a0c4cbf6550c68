package explore

import (
	"runtime"
	"strings"
	"testing"

	"flywheel/internal/lab"
	"flywheel/internal/sim"
	"flywheel/internal/workload/synth"
)

// testSpace is a small grid at a tiny budget: 2 profiles × 2 archs ×
// 2 FE boosts × 1 BE boost × 1 node, plus 2 baselines.
func testSpace() Space {
	return Space{
		Profiles: []synth.Profile{
			{MemFootprintKB: 4, CodeFootprintKB: 1, Passes: 1, Seed: 1},
			{ILP: 1, BranchEntropy: 1, MemFootprintKB: 4, CodeFootprintKB: 1, Passes: 1, Seed: 2},
		},
		Archs:        []sim.Arch{sim.ArchFlywheel, sim.ArchBaseline},
		FEBoosts:     []int{0, 50},
		BEBoosts:     []int{50},
		Instructions: 4_000,
	}
}

func TestExploreShape(t *testing.T) {
	rep, err := Explore(testSpace(), Options{Cache: lab.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	// Per profile: flywheel 2 points (FE 0/50 × BE 50) + baseline 1 point.
	if got, want := len(rep.Points), 2*3; got != want {
		t.Fatalf("points = %d, want %d", got, want)
	}
	var frontier int
	for _, p := range rep.Points {
		if p.Speedup <= 0 || p.EnergyRatio <= 0 {
			t.Errorf("point %v/%v FE%d: degenerate metrics %.3f/%.3f",
				p.Profile, p.Arch, p.FEBoost, p.Speedup, p.EnergyRatio)
		}
		if p.Arch == sim.ArchBaseline {
			if p.Speedup != 1 || p.EnergyRatio != 1 {
				t.Errorf("baseline point not normalized to itself: %.3f/%.3f", p.Speedup, p.EnergyRatio)
			}
		}
		if p.OnFrontier {
			frontier++
		}
	}
	if frontier == 0 {
		t.Error("no Pareto-optimal points")
	}
	if got := len(rep.Frontier()); got != frontier {
		t.Errorf("Frontier() returned %d points, flags say %d", got, frontier)
	}
}

// TestByteIdenticalAcrossWorkerCounts pins the acceptance criterion: the
// Pareto table and CSV render byte-identically at Workers 1 vs GOMAXPROCS.
func TestByteIdenticalAcrossWorkerCounts(t *testing.T) {
	serial, err := Explore(testSpace(), Options{Workers: 1, Cache: lab.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Explore(testSpace(), Options{Workers: runtime.GOMAXPROCS(0), Cache: lab.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Table().String(), parallel.Table().String(); s != p {
		t.Errorf("tables differ across worker counts:\n--- workers=1\n%s\n--- workers=max\n%s", s, p)
	}
	if s, p := serial.FrontierTable().String(), parallel.FrontierTable().String(); s != p {
		t.Errorf("frontier tables differ across worker counts:\n%s\nvs\n%s", s, p)
	}
	if s, p := serial.CSV(), parallel.CSV(); s != p {
		t.Errorf("CSV differs across worker counts:\n%s\nvs\n%s", s, p)
	}
}

// TestFrontierIsPareto checks the frontier definition directly: no member
// is dominated, and every non-member is dominated by some point.
func TestFrontierIsPareto(t *testing.T) {
	rep, err := Explore(testSpace(), Options{Cache: lab.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	dominates := func(a, b Point) bool {
		return a.Speedup >= b.Speedup && a.EnergyRatio <= b.EnergyRatio &&
			(a.Speedup > b.Speedup || a.EnergyRatio < b.EnergyRatio)
	}
	for i, p := range rep.Points {
		var dominated bool
		for j, q := range rep.Points {
			if i != j && dominates(q, p) {
				dominated = true
			}
		}
		if p.OnFrontier == dominated {
			t.Errorf("point %d: OnFrontier=%t but dominated=%t", i, p.OnFrontier, dominated)
		}
	}
	f := rep.Frontier()
	for i := 1; i < len(f); i++ {
		if f[i].Speedup > f[i-1].Speedup {
			t.Errorf("frontier not sorted by descending speedup at %d", i)
		}
	}
}

// TestSharedCacheDeduplicates: the baselines repeat across explorations of
// overlapping spaces, so a shared cache must absorb the second run.
func TestSharedCacheDeduplicates(t *testing.T) {
	cache := lab.NewCache()
	if _, err := Explore(testSpace(), Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	misses := cache.Stats().Misses
	if _, err := Explore(testSpace(), Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Misses != misses {
		t.Errorf("second identical exploration simulated %d new configurations", cache.Stats().Misses-misses)
	}
}

func TestEmptySpaceErrors(t *testing.T) {
	if _, err := Explore(Space{}, Options{}); err == nil || !strings.Contains(err.Error(), "no profiles") {
		t.Errorf("empty space: err = %v, want 'no profiles'", err)
	}
}

func TestCSVHasOneRowPerPoint(t *testing.T) {
	rep, err := Explore(testSpace(), Options{Cache: lab.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(rep.CSV(), "\n"), "\n")
	if got, want := len(lines), len(rep.Points)+1; got != want {
		t.Errorf("CSV has %d lines, want %d (header + points)", got, want)
	}
	if !strings.HasPrefix(lines[0], "profile,arch,node,") {
		t.Errorf("CSV header %q", lines[0])
	}
}

// TestDuplicateBaselineGrid pins satellite semantics for grids that list
// the baseline architecture as an explicit axis value: the baseline cell is
// the same configuration as the per-(profile, node) normalization run, so
// it must report Speedup and EnergyRatio of exactly 1.0 and be simulated
// exactly once — the cache key collapses the duplicate.
func TestDuplicateBaselineGrid(t *testing.T) {
	cache := lab.NewCache()
	s := Space{
		Profiles: []synth.Profile{
			{MemFootprintKB: 4, CodeFootprintKB: 1, Passes: 1, Seed: 31},
		},
		Archs:        []sim.Arch{sim.ArchBaseline, sim.ArchFlywheel},
		FEBoosts:     []int{0, 50},
		BEBoosts:     []int{50},
		Instructions: 2_000,
	}
	rep, err := Explore(s, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	// Jobs submitted: 1 baseline + 1 baseline grid cell (identical config) +
	// 2 flywheel cells. Distinct configurations: 3.
	if got := cache.Stats().Misses; got != 3 {
		t.Errorf("simulated %d distinct configurations, want 3 (baseline deduplicated)", got)
	}
	var baselineCells int
	for _, p := range rep.Points {
		if p.Arch != sim.ArchBaseline {
			continue
		}
		baselineCells++
		if p.Speedup != 1.0 || p.EnergyRatio != 1.0 {
			t.Errorf("baseline cell reports speedup=%v energy=%v, want exactly 1.0/1.0",
				p.Speedup, p.EnergyRatio)
		}
		if p.FEBoost != 0 || p.BEBoost != 0 {
			t.Errorf("baseline cell carries boosts FE%d/BE%d, want collapsed to 0/0", p.FEBoost, p.BEBoost)
		}
	}
	if baselineCells != 1 {
		t.Errorf("baseline contributed %d grid cells, want 1 (boost axes collapsed)", baselineCells)
	}
}
