package stats

import (
	"math"
	"strings"
	"testing"
)

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("ratio wrong")
	}
	// A zero denominator must not produce a finite value: the old
	// "Ratio(x, 0) == 0" convention made a degenerate baseline dominate
	// every real point in Pareto comparisons.
	if got := Ratio(1, 0); !math.IsNaN(got) {
		t.Errorf("Ratio(1, 0) = %v, want NaN", got)
	}
	if got := Ratio(0, 0); !math.IsNaN(got) {
		t.Errorf("Ratio(0, 0) = %v, want NaN", got)
	}
}

func TestPctAndF(t *testing.T) {
	if got := Pct(0.876); got != "87.6%" {
		t.Errorf("Pct = %q", got)
	}
	if got := F(1.23456, 2); got != "1.23" {
		t.Errorf("F = %q", got)
	}
}

func TestTableString(t *testing.T) {
	tbl := NewTable("Demo", "bench", "value")
	tbl.Add("gcc", "1.54")
	tbl.AddF("vpr", 2, 0.915)
	s := tbl.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "gcc") || !strings.Contains(s, "0.92") {
		t.Errorf("table output missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("line count = %d, want 5:\n%s", len(lines), s)
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("T", "a", "b")
	tbl.Add("x", "y")
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| --- | --- |") || !strings.Contains(md, "| x | y |") {
		t.Errorf("markdown = %q", md)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tbl := NewTable("", "a", "b", "c")
	tbl.Add("only")
	if s := tbl.String(); !strings.Contains(s, "only") {
		t.Errorf("ragged row lost: %q", s)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean = %v, want 2", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("empty geomean != 0")
	}
	if GeoMean([]float64{1, -1}) != 0 {
		t.Error("negative input not rejected")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty mean != 0")
	}
}

// TestSumDiff: Sum and Diff work field by field through nested structs
// and arrays, and panic on a field that is not an integer counter rather
// than sum it wrong.
func TestSumDiff(t *testing.T) {
	type block struct{ N [2]uint8 }
	type rec struct {
		A int64
		B block
		C uint32
	}
	a, b := rec{A: -3, B: block{[2]uint8{1, 2}}, C: 7}, rec{A: 5, B: block{[2]uint8{10, 20}}, C: 1}
	if got, want := Sum(a, b), (rec{2, block{[2]uint8{11, 22}}, 8}); got != want {
		t.Errorf("Sum = %+v, want %+v", got, want)
	}
	if got, want := Diff(a, b), (rec{-8, block{[2]uint8{247, 238}}, 6}); got != want {
		t.Errorf("Diff = %+v, want %+v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Sum over a float field did not panic")
		}
	}()
	Sum(struct{ F float64 }{1}, struct{ F float64 }{2})
}
