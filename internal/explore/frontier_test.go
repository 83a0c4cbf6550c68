package explore

import (
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"flywheel/internal/splitmix"
)

// markFrontierQuadratic is the seed's all-pairs dominance scan, kept as the
// property-test reference for the O(n log n) rewrite, with the NaN-exclusion
// fix applied to both (the old code let NaN comparisons decide dominance).
func markFrontierQuadratic(points []Point) {
	for i := range points {
		p := &points[i]
		if !p.finite() {
			p.OnFrontier = false
			continue
		}
		p.OnFrontier = true
		for j := range points {
			q := &points[j]
			if i == j || !q.finite() {
				continue
			}
			if q.Speedup >= p.Speedup && q.EnergyRatio <= p.EnergyRatio &&
				(q.Speedup > p.Speedup || q.EnergyRatio < p.EnergyRatio) {
				p.OnFrontier = false
				break
			}
		}
	}
}

// randomPoints draws metric pairs from a small discrete set so duplicates,
// speedup ties, and energy ties all occur, plus occasional NaNs.
func randomPoints(r *splitmix.Rand, n int) []Point {
	points := make([]Point, n)
	for i := range points {
		points[i].Speedup = float64(1+r.Intn(8)) / 4
		points[i].EnergyRatio = float64(1+r.Intn(8)) / 4
		switch r.Intn(20) {
		case 0:
			points[i].Speedup = math.NaN()
		case 1:
			points[i].EnergyRatio = math.NaN()
		}
	}
	return points
}

// TestMarkFrontierMatchesQuadraticReference is the property test for the
// sorted single-pass frontier: on randomized point sets — with duplicates,
// ties in one or both metrics, and NaN metrics — it must agree with the
// all-pairs definition point for point.
func TestMarkFrontierMatchesQuadraticReference(t *testing.T) {
	r := splitmix.Rand(7)
	for trial := 0; trial < 200; trial++ {
		points := randomPoints(&r, 1+r.Intn(60))
		ref := append([]Point(nil), points...)
		markFrontierQuadratic(ref)
		markFrontier(points)
		for i := range points {
			if points[i].OnFrontier != ref[i].OnFrontier {
				t.Fatalf("trial %d point %d (%.2f, %.2f): fast says %t, reference says %t",
					trial, i, points[i].Speedup, points[i].EnergyRatio,
					points[i].OnFrontier, ref[i].OnFrontier)
			}
		}
	}
}

func TestMarkFrontierEdgeCases(t *testing.T) {
	// Duplicate metric pairs: neither dominates the other, both kept.
	dup := []Point{
		{Speedup: 2, EnergyRatio: 1},
		{Speedup: 2, EnergyRatio: 1},
		{Speedup: 1, EnergyRatio: 2},
	}
	markFrontier(dup)
	if !dup[0].OnFrontier || !dup[1].OnFrontier {
		t.Errorf("duplicate frontier points not both kept: %t %t", dup[0].OnFrontier, dup[1].OnFrontier)
	}
	if dup[2].OnFrontier {
		t.Error("dominated point kept")
	}

	// Equal speedup, different energy: only the cheaper survives.
	tie := []Point{
		{Speedup: 2, EnergyRatio: 2},
		{Speedup: 2, EnergyRatio: 1},
	}
	markFrontier(tie)
	if tie[0].OnFrontier || !tie[1].OnFrontier {
		t.Errorf("speedup tie resolved wrong: %t %t", tie[0].OnFrontier, tie[1].OnFrontier)
	}

	markFrontier(nil) // must not panic
}

// TestMarkFrontierNaNRegression pins the zero-denominator fix end to end: a
// degenerate baseline used to make Ratio return 0, and a 0-energy point
// dominated everything — the frontier collapsed to garbage. Now the point's
// EnergyRatio is NaN and it neither joins the frontier nor suppresses real
// points.
func TestMarkFrontierNaNRegression(t *testing.T) {
	points := []Point{
		{Speedup: 3, EnergyRatio: math.NaN()}, // degenerate baseline cell
		{Speedup: 2, EnergyRatio: 1.2},
		{Speedup: 1, EnergyRatio: 0.8},
	}
	markFrontier(points)
	if points[0].OnFrontier {
		t.Error("NaN point on frontier")
	}
	if !points[1].OnFrontier || !points[2].OnFrontier {
		t.Errorf("real points suppressed by NaN point: %t %t", points[1].OnFrontier, points[2].OnFrontier)
	}
}

// BenchmarkMarkFrontier measures the satellite's target: 50k points, the
// scale the analytic tier screens at. The old all-pairs scan was O(n²)
// (~2.5 billion comparisons here); the rewrite is one sort plus one pass.
func BenchmarkMarkFrontier(b *testing.B) {
	r := splitmix.Rand(11)
	master := make([]Point, 50_000)
	for i := range master {
		master[i].Speedup = 0.5 + 3*r.Float()
		master[i].EnergyRatio = 0.5 + 3*r.Float()
	}
	points := make([]Point, len(master))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(points, master)
		markFrontier(points)
	}
}

// TestCSVQuotesDelimiters pins the CSV-quoting fix: fields containing
// commas, quotes, or newlines must round-trip through a conforming reader
// into the same cells, instead of silently splitting the row.
func TestCSVQuotesDelimiters(t *testing.T) {
	records := [][]string{
		{"plain", "with,comma", `with"quote`, "with\nnewline"},
		{"a", "b", "c", "d"},
	}
	var b strings.Builder
	writeCSV(&b, records)
	got, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(got) != len(records) {
		t.Fatalf("%d rows round-tripped, want %d", len(got), len(records))
	}
	for i := range records {
		for j := range records[i] {
			if got[i][j] != records[i][j] {
				t.Errorf("cell [%d][%d] = %q, want %q", i, j, got[i][j], records[i][j])
			}
		}
	}
	// Delimiter-free fields stay unquoted, so existing CSV output is
	// byte-identical to the seed's emitter.
	if strings.Contains(strings.Split(b.String(), "\n")[1], `"a"`) {
		t.Error("plain fields were quoted")
	}
}

func TestReportCSVRoundTrips(t *testing.T) {
	rep := &Report{Points: []Point{{Speedup: 1.5, EnergyRatio: 0.9, OnFrontier: true}}}
	rows, err := csv.NewReader(strings.NewReader(rep.CSV())).ReadAll()
	if err != nil {
		t.Fatalf("Report.CSV does not parse: %v", err)
	}
	if len(rows) != 2 || len(rows[1]) != len(csvHeader) {
		t.Fatalf("unexpected shape: %d rows, %d fields", len(rows), len(rows[1]))
	}
}
