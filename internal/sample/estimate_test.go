package sample

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestAccumulator(t *testing.T) {
	var a Accumulator
	a.Observe(Obs{}) // empty windows do not count
	a.Observe(Obs{Insts: 100, Cycles: 200, TimePS: 1_000, EnergyPJ: 50})
	e := a.Estimate()
	if e.Windows != 1 || e.MeasuredInsts != 100 {
		t.Fatalf("one window: %+v", e)
	}
	if e.CPI != 2 || e.CPIErr != 0 || e.TPIErr != 0 || e.EPIErr != 0 {
		t.Errorf("one window: want CPI 2 with zero stderr, got %+v", e)
	}

	a.Observe(Obs{Insts: 100, Cycles: 100, TimePS: 500, EnergyPJ: 150})
	a.Observe(Obs{})
	e = a.Estimate()
	if a.Windows() != 2 || e.Windows != 2 || e.MeasuredInsts != 200 {
		t.Fatalf("two windows: %+v", e)
	}
	// Per-instruction rates (2, 1), (10, 5), (0.5, 1.5): the stderr of the
	// mean of two points is half their distance.
	for _, c := range []struct {
		name            string
		mean, err       float64
		wantMean, wantE float64
	}{
		{"CPI", e.CPI, e.CPIErr, 1.5, 0.5},
		{"TPI", e.TPI, e.TPIErr, 7.5, 2.5},
		{"EPI", e.EPI, e.EPIErr, 1, 0.5},
	} {
		if !near(c.mean, c.wantMean) || !near(c.err, c.wantE) {
			t.Errorf("%s: mean %v stderr %v, want %v and %v", c.name, c.mean, c.err, c.wantMean, c.wantE)
		}
	}
}

func TestRelCI95(t *testing.T) {
	if got := RelCI95(1.5, 0.5); !near(got, 1.96*0.5/1.5) {
		t.Errorf("RelCI95(1.5, 0.5) = %v", got)
	}
	if got := RelCI95(-2, 0.5); !near(got, 0.49) {
		t.Errorf("negative mean: %v, want 0.49", got)
	}
	if got := RelCI95(0, 0.5); got != 0 {
		t.Errorf("zero mean: %v, want 0", got)
	}
}
