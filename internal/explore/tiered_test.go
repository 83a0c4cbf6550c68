package explore

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"flywheel/internal/analytic"
	"flywheel/internal/lab"
	"flywheel/internal/sim"
	"flywheel/internal/splitmix"
	"flywheel/internal/workload/synth"
)

// calibrateFor fits a test model covering the given profiles and archs at
// the given instruction budget, memoizing runs in the supplied cache. The
// profiles match the swept space: the model interpolates across the boost
// axes, it does not extrapolate to unseen workloads (see DESIGN.md).
func calibrateFor(t *testing.T, cache *lab.Cache, profiles []synth.Profile, archs []sim.Arch, instructions uint64) *analytic.Model {
	t.Helper()
	m, err := analytic.Calibrate(analytic.Config{
		Profiles:     profiles,
		Archs:        archs,
		Instructions: instructions,
		Cache:        cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tieredSpace interpolates between the calibration grid's boost points: 8
// profiles × 5×5 boosts = 200 flywheel cells.
func tieredSpace(instructions uint64) Space {
	return Space{
		Profiles:     analytic.DefaultTrainingProfiles(1)[:8],
		Archs:        []sim.Arch{sim.ArchFlywheel},
		FEBoosts:     []int{0, 25, 50, 75, 100},
		BEBoosts:     []int{0, 25, 50, 75, 100},
		Instructions: instructions,
	}
}

// cellID identifies a grid cell across reports.
func cellID(p Point) string {
	return fmt.Sprintf("%s/%s/%d/%d", baseKey(p.Profile.Name(), p.Node), p.Arch, p.FEBoost, p.BEBoost)
}

// TestExploreTieredRecall is the core two-tier contract on a small space:
// every exact-frontier point must be selected for confirmation and appear on
// the confirmed frontier, while the confirmed set stays a strict subset of
// the grid. The exact run shares the tiered run's cache, so ground truth and
// confirmation jobs coincide.
func TestExploreTieredRecall(t *testing.T) {
	cache := lab.NewCache()
	space := tieredSpace(2_000)
	model := calibrateFor(t, cache, space.Profiles, []sim.Arch{sim.ArchBaseline, sim.ArchFlywheel}, 2_000)

	exact, err := Explore(space, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ExploreTiered(space, model, TieredOptions{Options: Options{Cache: cache}})
	if err != nil {
		t.Fatal(err)
	}

	if len(rep.Predicted) != len(exact.Points) {
		t.Fatalf("predicted %d cells, exact enumerated %d", len(rep.Predicted), len(exact.Points))
	}
	for _, p := range rep.Predicted {
		if !p.Predicted {
			t.Fatal("screened point not marked Predicted")
		}
	}
	if len(rep.Confirmed) == 0 || len(rep.Confirmed) >= len(rep.Predicted) {
		t.Fatalf("confirmed %d of %d cells; want a non-trivial strict subset",
			len(rep.Confirmed), len(rep.Predicted))
	}
	if rep.MarginCells+rep.AuditCells != len(rep.Confirmed) {
		t.Errorf("margin %d + audit %d != confirmed %d", rep.MarginCells, rep.AuditCells, len(rep.Confirmed))
	}

	confirmedFrontier := map[string]bool{}
	for _, p := range rep.Frontier() {
		if p.Predicted {
			t.Error("confirmed frontier contains a predicted point")
		}
		confirmedFrontier[cellID(p)] = true
	}
	for _, p := range exact.Frontier() {
		if !confirmedFrontier[cellID(p)] {
			t.Errorf("exact frontier point %s/FE%d/BE%d (%.3f, %.3f) missed by tiered exploration",
				p.Arch, p.FEBoost, p.BEBoost, p.Speedup, p.EnergyRatio)
		}
	}

	// Confirmed metrics are the measured ones: identical to the exact run's
	// for the same cell.
	exactByID := map[string]Point{}
	for _, p := range exact.Points {
		exactByID[cellID(p)] = p
	}
	for _, c := range rep.Confirmed {
		e := exactByID[cellID(c)]
		if c.Speedup != e.Speedup || c.EnergyRatio != e.EnergyRatio {
			t.Errorf("confirmed cell FE%d/BE%d metrics (%.4f, %.4f) differ from exact (%.4f, %.4f)",
				c.FEBoost, c.BEBoost, c.Speedup, c.EnergyRatio, e.Speedup, e.EnergyRatio)
		}
	}

	if rep.Err.Cells != len(rep.Confirmed) {
		t.Errorf("error summary covers %d cells, confirmed %d", rep.Err.Cells, len(rep.Confirmed))
	}
	if rep.Err.TimeMAPE > rep.Margin {
		t.Errorf("prediction error %.1f%% exceeds the margin %.0f%% — screening is unsound",
			100*rep.Err.TimeMAPE, 100*rep.Margin)
	}
	if !strings.Contains(rep.Summary(), "confirmed") {
		t.Errorf("summary %q", rep.Summary())
	}
}

// TestExploreTieredDeterministic: same space, model, and seed — same
// confirmed set; the audit sample is a pure function of the seed.
func TestExploreTieredDeterministic(t *testing.T) {
	cache := lab.NewCache()
	space := tieredSpace(2_000)
	model := calibrateFor(t, cache, space.Profiles, []sim.Arch{sim.ArchBaseline, sim.ArchFlywheel}, 2_000)

	a, err := ExploreTiered(space, model, TieredOptions{Options: Options{Cache: cache}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExploreTiered(space, model, TieredOptions{Options: Options{Cache: cache}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Confirmed) != len(b.Confirmed) {
		t.Fatalf("confirmed %d vs %d cells across identical runs", len(a.Confirmed), len(b.Confirmed))
	}
	for i := range a.Confirmed {
		if cellID(a.Confirmed[i]) != cellID(b.Confirmed[i]) {
			t.Fatalf("confirmed cell %d differs across identical runs", i)
		}
	}
	if a.CSV() != b.CSV() {
		t.Error("tiered CSV not deterministic")
	}
}

// TestExploreTieredNoModel: the analytic tier without a model is an explicit
// error.
func TestExploreTieredNoModel(t *testing.T) {
	if _, err := ExploreTiered(tieredSpace(1_000), nil, TieredOptions{}); err == nil {
		t.Error("nil model accepted")
	}
}

// TestExploreTieredAuditDisabled: negative audit confirms only the margin
// band.
func TestExploreTieredAuditDisabled(t *testing.T) {
	cache := lab.NewCache()
	model := calibrateFor(t, cache, tieredSpace(2_000).Profiles, []sim.Arch{sim.ArchBaseline, sim.ArchFlywheel}, 2_000)
	rep, err := ExploreTiered(tieredSpace(2_000), model, TieredOptions{Options: Options{Cache: cache}, Audit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AuditCells != 0 {
		t.Errorf("audit disabled but %d audit cells confirmed", rep.AuditCells)
	}
	if rep.MarginCells != len(rep.Confirmed) {
		t.Errorf("margin %d != confirmed %d", rep.MarginCells, len(rep.Confirmed))
	}
}

// TestMarginSelectProperties checks slackSelect against the brute-force
// definition: a finite point is screened out iff it is off the frontier
// and some point dominates it even after crediting its speedup by
// (1+margin) and discounting its energy by (1-margin); at a margin of zero
// or below the point counts against itself.
func TestMarginSelectProperties(t *testing.T) {
	for _, margin := range []float64{0.15, 0, -0.1} {
		r := splitmix.Rand(3)
		for trial := 0; trial < 100; trial++ {
			points := randomPoints(&r, 1+r.Intn(50))
			markFrontier(points)
			got := slackSelect(points, margin)
			for i, p := range points {
				if !p.finite() {
					if got[i] {
						t.Fatalf("margin %g trial %d: NaN point selected", margin, trial)
					}
					continue
				}
				dominated := false
				for _, q := range points {
					if q.finite() && q.Speedup >= p.Speedup*(1+margin) && q.EnergyRatio <= p.EnergyRatio*(1-margin) {
						dominated = true
						break
					}
				}
				if want := !dominated || p.OnFrontier; got[i] != want {
					t.Fatalf("margin %g trial %d point %d (%.2f, %.2f): selected=%t, want %t",
						margin, trial, i, p.Speedup, p.EnergyRatio, got[i], want)
				}
				if margin > 0 && p.OnFrontier && dominated {
					t.Fatalf("margin %g trial %d: frontier point dominated", margin, trial)
				}
				if margin <= 0 && got[i] != p.OnFrontier {
					t.Fatalf("margin %g trial %d: selected a non-frontier point", margin, trial)
				}
			}
		}
	}
}

func TestMarginSelectZeroMarginIsFrontier(t *testing.T) {
	r := splitmix.Rand(5)
	points := randomPoints(&r, 40)
	markFrontier(points)
	got := slackSelect(points, 0)
	for i := range points {
		if got[i] != points[i].OnFrontier {
			t.Fatalf("point %d: selected=%t, OnFrontier=%t", i, got[i], points[i].OnFrontier)
		}
	}
}

// TestExploreTieredScale pins the acceptance criterion on a ≥10k-cell seeded
// space: the tiered explorer recovers every exact-frontier point while
// confirming at most 15% of the grid cycle-accurately. The exact reference
// shares the cache, so the tiered confirmation stage simulates nothing new.
// Heavy (≈30s of simulation): skipped under -short and the race detector;
// CI runs it in its race-free test step.
func TestExploreTieredScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("heavyweight scale test; run without -short/-race")
	}
	cache := lab.NewCache()
	model := calibrateFor(t, cache, analytic.DefaultTrainingProfiles(1),
		[]sim.Arch{sim.ArchBaseline, sim.ArchFlywheel, sim.ArchRegAlloc}, 1_000)

	var fes, bes []int
	for b := 0; b <= 100; b += 5 {
		fes = append(fes, b)
		bes = append(bes, b)
	}
	space := Space{
		Profiles:     analytic.DefaultTrainingProfiles(1),
		Archs:        []sim.Arch{sim.ArchFlywheel, sim.ArchRegAlloc},
		FEBoosts:     fes,
		BEBoosts:     bes,
		Instructions: 1_000,
	}

	exact, err := Explore(space, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Points) < 10_000 {
		t.Fatalf("scale space has %d cells, want >= 10k", len(exact.Points))
	}
	// The margin is sized to the anchored model's observed interpolation
	// error on this space (~1% max APE; see DESIGN.md for the margin/error
	// table); the audit is trimmed so the total budget stays under 15%.
	rep, err := ExploreTiered(space, model, TieredOptions{
		Options: Options{Cache: cache}, Margin: 0.0075, Audit: 0.005,
	})
	if err != nil {
		t.Fatal(err)
	}

	budget := 0.15 * float64(len(rep.Predicted))
	if float64(len(rep.Confirmed)) > budget {
		t.Errorf("confirmed %d of %d cells (%.1f%%), budget is 15%%",
			len(rep.Confirmed), len(rep.Predicted), 100*float64(len(rep.Confirmed))/float64(len(rep.Predicted)))
	}
	confirmedFrontier := map[string]bool{}
	for _, p := range rep.Frontier() {
		confirmedFrontier[cellID(p)] = true
	}
	missed := 0
	for _, p := range exact.Frontier() {
		if !confirmedFrontier[cellID(p)] {
			missed++
			t.Errorf("missed exact frontier point %s %s FE%d/BE%d (%.3f, %.3f)",
				p.Profile, p.Arch, p.FEBoost, p.BEBoost, p.Speedup, p.EnergyRatio)
		}
	}
	t.Logf("%s; exact frontier %d points, missed %d", rep.Summary(), len(exact.Frontier()), missed)
	if math.IsNaN(rep.Err.TimeMAPE) {
		t.Error("error summary is NaN")
	}
}
