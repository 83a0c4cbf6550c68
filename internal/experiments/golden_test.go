package experiments

// Golden-shape regression tests: they pin the reproduction contract — who
// wins, in what order, and which way the crossovers fall — for Figure 11
// and Table 1, so a future refactor cannot silently flip a conclusion.

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"flywheel/internal/lab"
	"flywheel/internal/sim"
)

// parseCell reads the numeric (possibly %-suffixed) cell at row, col.
func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(cell), "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestFigure11GoldenShape(t *testing.T) {
	// The equal-clock shapes need the EC warmed up; tiny budgets flatter the
	// baseline, so this test runs a real 100k-instruction budget (~3s).
	opt := tinyOptions()
	opt.Instructions = 100_000
	tbl, err := Figure11(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 11 { // 10 benchmarks + average
		t.Fatalf("figure 11 rows = %d, want 11", len(tbl.Rows))
	}
	avg := tbl.Rows[len(tbl.Rows)-1]
	if avg[0] != "average" {
		t.Fatalf("last row is %q, want average", avg[0])
	}
	raAvg := parseCell(t, avg[1])
	fwAvg := parseCell(t, avg[2])

	// Contract 1 — who wins where: limited renaming costs the RA
	// configuration performance on the register-hungry proxies, and the EC
	// recovers each of them. This is Figure 11's core claim.
	cells := map[string][]string{}
	for _, row := range tbl.Rows[:len(tbl.Rows)-1] {
		cells[row[0]] = row
	}
	for _, b := range []string{"gzip", "vpr", "parser"} {
		row, ok := cells[b]
		if !ok {
			t.Fatalf("benchmark %s missing from figure 11", b)
		}
		ra := parseCell(t, row[1])
		fw := parseCell(t, row[2])
		if ra >= 0.97 {
			t.Errorf("%s: register-allocation perf %.3f, want a visible drop below the baseline", b, ra)
		}
		if fw <= ra {
			t.Errorf("%s: flywheel %.3f not above register allocation %.3f (the EC must recover the renaming loss)", b, fw, ra)
		}
	}
	// Contract 2 — crossover direction: at the equal clock the averages sit
	// below baseline parity (the win in Figures 12-14 comes from the clock
	// boost, not from equal-clock IPC), but within the near-parity band.
	if raAvg >= 1.0 {
		t.Errorf("register-allocation average %.3f, want < 1.0", raAvg)
	}
	if fwAvg < 0.8 || fwAvg >= 1.05 {
		t.Errorf("flywheel average %.3f, want in the near-parity band [0.8, 1.05)", fwAvg)
	}
	// Contract 3 — the EC carries the execution: residency stays high on
	// every benchmark, the precondition for the paper's clock-gating story.
	for _, row := range tbl.Rows[:len(tbl.Rows)-1] {
		if resid := parseCell(t, row[3]); resid < 75 {
			t.Errorf("%s: EC residency %.1f%%, implausibly low", row[0], resid)
		}
	}
}

func TestTable1GoldenShape(t *testing.T) {
	tbl := Table1()
	if len(tbl.Rows) != 6 {
		t.Fatalf("table 1 rows = %d, want 6", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		module := row[0]
		var model, paper []float64
		for _, cell := range row[1:] {
			parts := strings.SplitN(cell, "/", 2)
			if len(parts) != 2 {
				t.Fatalf("%s: cell %q lacks model/paper pair", module, cell)
			}
			model = append(model, parseCell(t, parts[0]))
			paper = append(paper, parseCell(t, parts[1]))
		}
		// Contract 1 — ordering: every module clocks strictly faster at each
		// smaller node (columns run 0.18um -> 0.06um).
		for i := 1; i < len(model); i++ {
			if model[i] <= model[i-1] {
				t.Errorf("%s: model frequency not increasing across shrink: %v", module, model)
				break
			}
		}
		// Contract 2 — magnitude: the model stays within 2x of the paper's
		// published frequency at every node.
		for i := range model {
			if ratio := model[i] / paper[i]; ratio < 0.5 || ratio > 2.0 {
				t.Errorf("%s: model %.0f vs paper %.0f MHz (ratio %.2f), outside 2x band",
					module, model[i], paper[i], ratio)
			}
		}
	}
	// Contract 3 — who loses, and by a growing margin: the issue window is
	// the slowest clock in every column (it sets the baseline frequency),
	// and every other module's lead over it widens from 0.18um to 0.06um —
	// the scaling gap that motivates the dual-clock design.
	modelAt := func(row []string, col int) float64 {
		return parseCell(t, strings.SplitN(row[col], "/", 2)[0])
	}
	iw := tbl.Rows[0]
	first, last := 1, len(iw)-1
	for _, row := range tbl.Rows[1:] {
		for col := first; col <= last; col++ {
			if v := modelAt(row, col); v <= modelAt(iw, col) {
				t.Errorf("col %d: %s clocks at %.0f MHz, want above the issue window's %.0f", col, row[0], v, modelAt(iw, col))
			}
		}
		leadFirst := modelAt(row, first) / modelAt(iw, first)
		leadLast := modelAt(row, last) / modelAt(iw, last)
		if leadLast <= leadFirst {
			t.Errorf("%s: lead over the issue window shrank from %.2fx (0.18um) to %.2fx (0.06um); the scaling gap must widen", row[0], leadFirst, leadLast)
		}
	}
}

// TestTablesByteIdenticalAcrossWorkerCounts is the determinism contract at
// the rendering layer: a figure regenerated serially and with 8 workers
// must produce byte-identical text.
func TestTablesByteIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := tinyOptions()
	serial.Parallel = 1
	serial.Cache = lab.NewCache()
	parallel := tinyOptions()
	parallel.Parallel = 8
	parallel.Cache = lab.NewCache()

	s11, err := Figure11(serial)
	if err != nil {
		t.Fatal(err)
	}
	p11, err := Figure11(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if s11.String() != p11.String() {
		t.Error("figure 11 differs between Workers:1 and Workers:8")
	}

	sd, err := Sweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := Sweep(parallel)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{
		{sd.Figure12().String(), pd.Figure12().String()},
		{sd.Figure13().String(), pd.Figure13().String()},
		{sd.Figure14().String(), pd.Figure14().String()},
		{sd.Residency().String(), pd.Residency().String()},
	} {
		if pair[0] != pair[1] {
			t.Error("sweep table differs between Workers:1 and Workers:8")
		}
	}
}

// TestSuiteSharesBaselinesThroughCache pins the memoization win: the
// Figure 11-15 suite submits 150 jobs but fewer distinct configurations —
// the 0.13um baseline repeats across Figures 11, 12-14 and 15, and the
// sweep's (FE+100%, BE+50%) point reappears in Figure 15. Of the distinct
// configurations, Figure 15's 90 and 60 nm baselines and 60 nm Flywheel
// cells are priced from the 130 nm timing records instead of simulated.
func TestSuiteSharesBaselinesThroughCache(t *testing.T) {
	opt := tinyOptions()
	opt.Cache = lab.NewCache()
	jobs := SuiteJobs(opt)
	if len(jobs) != 150 { // fig11: 30, sweep: 60, fig15: 60
		t.Fatalf("suite jobs = %d, want 150", len(jobs))
	}
	distinct := map[string]bool{}
	for _, j := range jobs {
		distinct[j.Key()] = true
	}
	if _, err := lab.Run(jobs, lab.Options{Workers: 4, Cache: opt.Cache}); err != nil {
		t.Fatal(err)
	}
	st := opt.Cache.Stats()
	if st.Repriced != 30 {
		t.Errorf("repriced = %d, want 30 (20 baselines at 90/60 nm, 10 Flywheel cells at 60 nm)", st.Repriced)
	}
	if got := st.Misses + st.Repriced; got != uint64(len(distinct)) {
		t.Errorf("misses + repriced = %d, want %d distinct configurations", got, len(distinct))
	}
	if got := opt.Cache.Stats().Hits; got != uint64(len(jobs)-len(distinct)) {
		t.Errorf("hits = %d, want %d duplicate submissions", got, len(jobs)-len(distinct))
	}
	if len(jobs)-len(distinct) < 20 {
		t.Errorf("only %d duplicate submissions in the suite; expected the baseline columns to repeat", len(jobs)-len(distinct))
	}
}

// TestPaperPassPricesNodeVariants: a fresh cache over the four simulated
// figures' job lists (Figure 2, Figure 11, the Figure 12-14 sweep and
// Figure 15) simulates each distinct timing once, and every result —
// simulated or priced from a shared record — is JSON-identical to a plain
// sim.Run of its job.
func TestPaperPassPricesNodeVariants(t *testing.T) {
	opt := tinyOptions()
	opt.Instructions = 3_000
	jobs := append(figure2Jobs(opt), SuiteJobs(opt)...)
	cache := lab.NewCache()
	res, err := lab.Run(jobs, lab.Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 40 || st.Misses != 110 || st.Repriced != 30 || st.DiskHits != 0 {
		t.Errorf("stats %+v, want 40 hits, 110 misses, 30 repriced", st)
	}
	for i, j := range jobs {
		want, err := sim.Run(j.Config())
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(res[i])
		exp, _ := json.Marshal(want)
		if !bytes.Equal(got, exp) {
			t.Fatalf("job %d (%s): cached result differs from sim.Run:\n cache %s\n run   %s", i, j.Key(), got, exp)
		}
	}
}
