package experiments

import (
	"strconv"
	"strings"
	"testing"

	"flywheel/internal/cacti"
	"flywheel/internal/sim"
)

// tinyOptions keeps the smoke tests fast; cmd/experiments runs full budgets.
func tinyOptions() Options {
	return Options{Instructions: 6_000, Node: cacti.Node130}
}

// lastCell parses the numeric cell col of a table's trailing average row.
func lastCell(t *testing.T, rows [][]string, col int) float64 {
	t.Helper()
	if len(rows) == 0 {
		t.Fatal("empty table")
	}
	avg := rows[len(rows)-1]
	if avg[0] != "average" {
		t.Fatalf("last row is %q, want average", avg[0])
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(avg[col], "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", avg[col], err)
	}
	return v
}

// TestZeroInstructionsRunsToCompletion: a zero budget reaches the jobs as
// zero, which the simulator reads as "run the kernel to completion", as
// flywheelsim -n 0 and sim.RunConfig{MaxInstructions: 0} do; the default
// budget lives in DefaultOptions alone.
func TestZeroInstructionsRunsToCompletion(t *testing.T) {
	opt := Options{Node: cacti.Node130}.normalize()
	if j := opt.job("gzip", sim.ArchFlywheel, 50, 50); j.MaxInstructions != 0 {
		t.Fatalf("zero budget reached the job as %d instructions", j.MaxInstructions)
	}
	if DefaultOptions().Instructions != 300_000 {
		t.Fatalf("default budget %d, want 300000", DefaultOptions().Instructions)
	}
}

func TestFigure1AndTable1Static(t *testing.T) {
	if got := len(Figure1().Rows); got != 6 {
		t.Errorf("figure 1 rows = %d, want 6", got)
	}
	tbl := Table1()
	if got := len(tbl.Rows); got != 6 {
		t.Errorf("table 1 rows = %d, want 6", got)
	}
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			if !strings.Contains(cell, "/") {
				t.Errorf("table 1 cell %q lacks model/paper pair", cell)
			}
		}
	}
	if got := len(Table2().Rows); got < 10 {
		t.Errorf("table 2 rows = %d, want >= 10", got)
	}
}

func TestFigure2ShapeHolds(t *testing.T) {
	tbl, err := Figure2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	feLoss := lastCell(t, tbl.Rows, 1)
	wsLoss := lastCell(t, tbl.Rows, 2)
	// The paper's central motivation: breaking back-to-back scheduling
	// costs far more than one extra front-end stage.
	if wsLoss <= feLoss {
		t.Errorf("wake-up/select loss %.1f%% not above front-end loss %.1f%%", wsLoss, feLoss)
	}
	if feLoss > 12 {
		t.Errorf("front-end stage loss %.1f%%, want small", feLoss)
	}
}

func TestFigure11RegAllocDropsOnRegisterHungryProxies(t *testing.T) {
	tbl, err := Figure11(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	perBench := map[string]float64{}
	for _, row := range tbl.Rows[:len(tbl.Rows)-1] {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		perBench[row[0]] = v
	}
	// The paper singles out gzip, vpr and parser as the benchmarks hurt by
	// the limited renaming capacity.
	for _, b := range []string{"gzip", "vpr", "parser"} {
		if perBench[b] >= 0.97 {
			t.Errorf("%s register-allocation perf = %.3f, want a visible drop", b, perBench[b])
		}
	}
}

func TestSweepFiguresConsistent(t *testing.T) {
	d, err := Sweep(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	perf := d.Figure12()
	energy := d.Figure13()
	pwr := d.Figure14()
	res := d.Residency()
	for _, tbl := range []*struct {
		name string
		rows int
	}{
		{"fig12", len(perf.Rows)}, {"fig13", len(energy.Rows)},
		{"fig14", len(pwr.Rows)}, {"residency", len(res.Rows)},
	} {
		if tbl.rows != 11 { // 10 benchmarks + average
			t.Errorf("%s rows = %d, want 11", tbl.name, tbl.rows)
		}
	}
	// Power must equal energy/time: normalized power ~= normalized energy *
	// speedup, so with speedup > 1 and energy < 1 the power column stays in
	// a sane band.
	if p := lastCell(t, pwr.Rows, 1); p < 0.5 || p > 2.0 {
		t.Errorf("normalized power average = %.2f, outside sanity band", p)
	}
	// The EC must carry most of the execution for the flywheel to make
	// sense at all.
	if r := lastCell(t, res.Rows, 1); r < 50 {
		t.Errorf("average EC residency = %.0f%%, implausibly low", r)
	}
}
