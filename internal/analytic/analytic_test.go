package analytic

import (
	"math"
	"testing"

	"flywheel/internal/cacti"
	"flywheel/internal/lab"
	"flywheel/internal/sim"
	"flywheel/internal/splitmix"
	"flywheel/internal/workload/synth"
)

// testConfig is a small, fast calibration grid: 8 profiles × (baseline +
// flywheel × 2 FE boosts) at a tiny instruction budget.
func testConfig() Config {
	return Config{
		Profiles:     DefaultTrainingProfiles(1)[:8],
		Archs:        []sim.Arch{sim.ArchBaseline, sim.ArchFlywheel},
		FEBoosts:     []int{0, 100},
		BEBoosts:     []int{50},
		Instructions: 2_000,
		Cache:        lab.NewCache(),
	}
}

func TestCalibrateFitsTrainingSet(t *testing.T) {
	m, err := Calibrate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.TrainingCells != 8*(1+2) {
		t.Errorf("TrainingCells = %d, want %d", m.TrainingCells, 8*3)
	}
	if m.TrainingErr.Cells != m.TrainingCells {
		t.Errorf("error summary covers %d cells, want %d", m.TrainingErr.Cells, m.TrainingCells)
	}
	// The in-sample fit must be usable for frontier screening: mean
	// relative error well under the default 10% margin.
	if m.TrainingErr.TimeMAPE > 0.08 {
		t.Errorf("training time MAPE %.1f%% too high for screening", 100*m.TrainingErr.TimeMAPE)
	}
	if m.TrainingErr.EnergyMAPE > 0.08 {
		t.Errorf("training energy MAPE %.1f%% too high for screening", 100*m.TrainingErr.EnergyMAPE)
	}
	if !m.Covers(sim.ArchFlywheel, cacti.Node130, Frontend{}) || m.Covers(sim.ArchRegAlloc, cacti.Node130, Frontend{}) {
		t.Error("Covers does not reflect the calibrated groups")
	}
}

func TestPredictShape(t *testing.T) {
	m, err := Calibrate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := synth.Profile{MemFootprintKB: 4, CodeFootprintKB: 1, Passes: 1, Seed: 7}
	r, err := m.Predict(p, sim.ArchFlywheel, cacti.Node130, 50, 50, Frontend{}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.TimePS <= 0 || r.EnergyPJ <= 0 || r.Retired != 10_000 {
		t.Errorf("degenerate prediction: time=%d energy=%g retired=%d", r.TimePS, r.EnergyPJ, r.Retired)
	}
	if r.Config.Arch != sim.ArchFlywheel || r.Config.FEBoostPct != 50 {
		t.Errorf("prediction config not stamped: %+v", r.Config)
	}
	// Deterministic: same query, same answer.
	r2, err := m.Predict(p, sim.ArchFlywheel, cacti.Node130, 50, 50, Frontend{}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if r2.TimePS != r.TimePS || r2.EnergyPJ != r.EnergyPJ {
		t.Error("prediction not deterministic")
	}
	// Per-instruction cost is instruction-count invariant: doubling the
	// budget doubles time and energy (within rounding).
	r3, err := m.Predict(p, sim.ArchFlywheel, cacti.Node130, 50, 50, Frontend{}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(r3.TimePS)/float64(r.TimePS)-2) > 0.01 {
		t.Errorf("time not linear in instructions: %d vs %d", r.TimePS, r3.TimePS)
	}

	// The baseline architecture collapses boosts, exactly like the grid
	// enumeration does.
	b1, err := m.Predict(p, sim.ArchBaseline, cacti.Node130, 0, 0, Frontend{}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m.Predict(p, sim.ArchBaseline, cacti.Node130, 100, 100, Frontend{}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if b1.TimePS != b2.TimePS {
		t.Error("baseline prediction depends on boosts")
	}

	// An uncalibrated (arch, node) is an explicit error, not a guess.
	if _, err := m.Predict(p, sim.ArchRegAlloc, cacti.Node130, 0, 0, Frontend{}, 1_000); err == nil {
		t.Error("uncalibrated arch predicted without error")
	}
	if _, err := m.Predict(p, sim.ArchFlywheel, cacti.Node90, 0, 0, Frontend{}, 1_000); err == nil {
		t.Error("uncalibrated node predicted without error")
	}
}

func TestCalibrateMemoizes(t *testing.T) {
	cfg := testConfig()
	if _, err := Calibrate(cfg); err != nil {
		t.Fatal(err)
	}
	misses := cfg.Cache.Stats().Misses
	if _, err := Calibrate(cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Cache.Stats().Misses != misses {
		t.Errorf("re-calibration simulated %d new cells", cfg.Cache.Stats().Misses-misses)
	}
}

func TestDefaultTrainingProfiles(t *testing.T) {
	a, b := DefaultTrainingProfiles(1), DefaultTrainingProfiles(1)
	if len(a) != len(b) || len(a) < 12 {
		t.Fatalf("unexpected training set size %d", len(a))
	}
	names := map[string]bool{}
	for i, p := range a {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %d invalid: %v", i, err)
		}
		if p.Name() != b[i].Name() {
			t.Errorf("profile %d not deterministic", i)
		}
		names[p.Name()] = true
	}
	if len(names) != len(a) {
		t.Errorf("training profiles collide: %d distinct of %d", len(names), len(a))
	}
	if DefaultTrainingProfiles(2)[6].Name() == a[6].Name() {
		t.Error("different seeds produce identical fills")
	}
}

func TestSolveRidgeRecoversLinear(t *testing.T) {
	// y = 3 - 2·x1 + 0.5·x2, exactly linear: the solver must recover the
	// coefficients to ridge precision.
	var X [][]float64
	var y []float64
	r := splitmix.Rand(42)
	for i := 0; i < 40; i++ {
		x1 := float64(r.Intn(100)) / 10
		x2 := float64(r.Intn(100)) / 10
		X = append(X, []float64{1, x1, x2})
		y = append(y, 3-2*x1+0.5*x2)
	}
	w, err := solveRidge(X, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{3, -2, 0.5} {
		if math.Abs(w[i]-want) > 1e-3 {
			t.Errorf("w[%d] = %g, want %g", i, w[i], want)
		}
	}
}

func TestSolveRidgeConstantColumn(t *testing.T) {
	// A constant zero column (the baseline arch's boost features) makes
	// plain normal equations singular; ridge must still solve.
	var X [][]float64
	var y []float64
	for i := 0; i < 10; i++ {
		x := float64(i)
		X = append(X, []float64{1, x, 0})
		y = append(y, 1+2*x)
	}
	w, err := solveRidge(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-1) > 1e-3 || math.Abs(w[1]-2) > 1e-3 {
		t.Errorf("w = %v, want [1 2 ~0]", w)
	}
}

func TestSolveRidgeErrors(t *testing.T) {
	if _, err := solveRidge(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := solveRidge([][]float64{{1}, {1}}, []float64{1, 2}); err == nil {
		t.Error("underdetermined 2-row system accepted")
	}
	if _, err := solveRidge([][]float64{{0, 0}, {0, 0}, {0, 0}}, []float64{0, 0, 0}); err == nil {
		t.Error("all-zero design matrix accepted")
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	s.Observe(1.1, 1.0, 0.9, 1.0) // 10% high, 10% low
	s.Observe(1.0, 1.0, 1.0, 1.0) // exact
	s.Finish()
	if s.Cells != 2 {
		t.Errorf("cells = %d", s.Cells)
	}
	if math.Abs(s.TimeMAPE-0.05) > 1e-9 || math.Abs(s.TimeMaxAPE-0.1) > 1e-9 {
		t.Errorf("time error stats wrong: %+v", s)
	}
	if math.Abs(s.EnergyMAPE-0.05) > 1e-9 || math.Abs(s.EnergyMaxAPE-0.1) > 1e-9 {
		t.Errorf("energy error stats wrong: %+v", s)
	}
}
