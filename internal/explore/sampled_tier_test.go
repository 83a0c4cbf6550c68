package explore

import (
	"math"
	"testing"

	"flywheel/internal/analytic"
	"flywheel/internal/lab"
	"flywheel/internal/sim"
)

// withCI attaches a sampled-stats record with the given relative CI to a
// point (same value on time and energy, baseline exact), so pointCI
// returns 2*ci.
func withCI(speedup, energy, ci float64) Point {
	return Point{
		Speedup:     speedup,
		EnergyRatio: energy,
		Result: sim.Result{Sampled: &sim.SampledStats{
			TimeRelCI95: ci, EnergyRelCI95: ci,
		}},
	}
}

// TestCISelectEscalation pins the escalation rule: a frontier point always
// escalates; a dominated point escalates iff its own confidence interval
// could flip the verdict.
func TestCISelectEscalation(t *testing.T) {
	points := []Point{
		// 0: frontier (fastest).
		withCI(2.0, 1.0, 0.001),
		// 1: dominated by 0 on both axes, but only barely — its wide CI
		// (±10% on each estimate) overlaps the frontier, so it escalates.
		withCI(1.9, 1.05, 0.05),
		// 2: same metrics, but a tight CI (±0.2%) settles it: dominated.
		withCI(1.9, 1.05, 0.001),
		// 3: frontier (lowest energy).
		withCI(1.0, 0.5, 0.001),
		// 4: far inside the hull; even a wide CI cannot reach the frontier.
		withCI(0.8, 1.4, 0.05),
	}
	markFrontier(points)
	got := slackSelect(points, pointCI)
	want := []bool{true, true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d (%.2f, %.2f, ci %.3f): escalate=%t, want %t",
				i, points[i].Speedup, points[i].EnergyRatio, pointCI(points[i]), got[i], want[i])
		}
	}
}

// TestCISelectNaNNeverEscalates: points excluded from dominance cannot be
// escalated — there is no frontier question to settle for them.
func TestCISelectNaNNeverEscalates(t *testing.T) {
	points := []Point{withCI(2.0, 1.0, 0.01), withCI(math.NaN(), 1.0, 0.5)}
	markFrontier(points)
	if got := slackSelect(points, pointCI); got[1] {
		t.Error("NaN point escalated")
	}
}

// threeTierSpace is small enough to explore quickly but long enough for
// the sampled schedule: the bootstrap plus several windows fit the stream.
func threeTierSpace() Space {
	return Space{
		Profiles:     analytic.DefaultTrainingProfiles(1)[:2],
		Archs:        []sim.Arch{sim.ArchFlywheel},
		FEBoosts:     []int{0, 50, 100},
		BEBoosts:     []int{0, 50, 100},
		Instructions: 60_000,
	}
}

var threeTierSampling = sim.Sampling{Period: 12_000, WindowInsts: 1_000, WarmupInsts: 500, Seed: 1}

// TestExploreThreeTier exercises the full analytic → sampled → exact flow
// and its report invariants: every confirmed cell was sampled, only the
// CI-ambiguous subset re-ran exactly, and the merged set carries exact
// results exactly where escalation happened.
func TestExploreThreeTier(t *testing.T) {
	cache := lab.NewCache()
	space := threeTierSpace()
	model := calibrateFor(t, cache, space.Profiles,
		[]sim.Arch{sim.ArchBaseline, sim.ArchFlywheel}, space.Instructions)

	rep, err := ExploreTiered(space, model, TieredOptions{
		Options:  Options{Cache: cache},
		Sampling: threeTierSampling,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SampledCells == 0 {
		t.Fatal("three-tier run sampled no cells")
	}
	if rep.SampledCells != len(rep.Confirmed) {
		t.Errorf("sampled %d cells but confirmed %d — the merged set must cover every sampled cell",
			rep.SampledCells, len(rep.Confirmed))
	}
	if rep.EscalatedCells == 0 {
		t.Error("no cell escalated to exact — the frontier itself always must")
	}
	if rep.EscalatedCells > rep.SampledCells {
		t.Errorf("escalated %d > sampled %d", rep.EscalatedCells, rep.SampledCells)
	}
	exactCells := 0
	for _, p := range rep.Confirmed {
		if p.Predicted {
			t.Fatal("confirmed point still marked Predicted")
		}
		if p.Sampled {
			if p.Result.Sampled == nil {
				t.Fatal("sampled point carries no SampledStats")
			}
		} else {
			exactCells++
			if p.Result.Sampled != nil {
				t.Fatal("exact point carries SampledStats")
			}
		}
	}
	if exactCells != rep.EscalatedCells {
		t.Errorf("%d exact points in the confirmed set, %d escalations reported", exactCells, rep.EscalatedCells)
	}
	// Every frontier point's status was worth settling exactly.
	for _, p := range rep.Frontier() {
		if p.Sampled {
			t.Errorf("frontier point FE%d/BE%d is a sampled estimate — frontier members must escalate",
				p.FEBoost, p.BEBoost)
		}
	}
	if rep.SampledErr.Cells != rep.EscalatedCells {
		t.Errorf("sampled-vs-exact summary covers %d cells, escalated %d", rep.SampledErr.Cells, rep.EscalatedCells)
	}
	if rep.SampledErr.TimeMAPE > 0.10 {
		t.Errorf("sampled-vs-exact time error %.1f%% is implausibly large", 100*rep.SampledErr.TimeMAPE)
	}
}

// TestExploreThreeTierDeterministic: the full three-tier flow is a pure
// function of (space, model, options).
func TestExploreThreeTierDeterministic(t *testing.T) {
	cache := lab.NewCache()
	space := threeTierSpace()
	model := calibrateFor(t, cache, space.Profiles,
		[]sim.Arch{sim.ArchBaseline, sim.ArchFlywheel}, space.Instructions)
	opt := TieredOptions{Options: Options{Cache: cache}, Sampling: threeTierSampling}

	a, err := ExploreTiered(space, model, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExploreTiered(space, model, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Error("three-tier CSV not deterministic")
	}
	if a.EscalatedCells != b.EscalatedCells || a.SampledCells != b.SampledCells {
		t.Errorf("tier counts differ across identical runs: %d/%d vs %d/%d",
			a.SampledCells, a.EscalatedCells, b.SampledCells, b.EscalatedCells)
	}
}
