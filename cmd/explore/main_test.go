package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// tiny keeps command tests fast: one small profile, two boosts, 2k
// instructions per run.
var tiny = []string{
	"-ilp", "1", "-entropy", "0", "-mem", "4", "-code", "1", "-passes", "1",
	"-fe", "0,50", "-n", "2000",
}

func TestRunTables(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(tiny, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"Design space", "Pareto frontier", "speedup", "energy"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

func TestRunFrontierOnly(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(append([]string{"-frontier"}, tiny...), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if strings.Contains(out.String(), "Design space") {
		t.Error("-frontier still printed the full grid table")
	}
	if !strings.Contains(out.String(), "Pareto frontier") {
		t.Error("output lacks the frontier table")
	}
}

func TestRunCSV(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(append([]string{"-csv"}, tiny...), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if !strings.HasPrefix(lines[0], "profile,arch,node,") {
		t.Errorf("CSV header %q", lines[0])
	}
	// 1 profile × flywheel × 2 FE × 1 BE × 1 node = 2 data rows.
	if len(lines) != 3 {
		t.Errorf("CSV has %d lines, want 3", len(lines))
	}
}

func TestRunMarkdown(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(append([]string{"-md"}, tiny...), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "|") {
		t.Error("markdown output lacks table pipes")
	}
}

func TestInstructionsAliasMatchesN(t *testing.T) {
	var a, b, errb bytes.Buffer
	if code := run(tiny, &a, &errb); code != 0 {
		t.Fatalf("-n run: exit %d, stderr: %s", code, errb.String())
	}
	alias := append([]string{}, tiny...)
	alias[len(alias)-2] = "-instructions"
	if code := run(alias, &b, &errb); code != 0 {
		t.Fatalf("-instructions run: exit %d, stderr: %s", code, errb.String())
	}
	if a.String() != b.String() {
		t.Error("-n and -instructions produce different output")
	}
}

func TestRunBadFlagValues(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-ilp", "abc"},
		{"-entropy", "x"},
		{"-arch", "vliw"},
		{"-arch", ""},
		{"-node", "0.42"},
		{"-node", ""},
		{"-fe", ""},
		// A margin or audit that confirms every cell would run a screened
		// grid cycle-accurately past the exact grid guard.
		{"-tier", "analytic", "-margin", "NaN"},
		{"-tier", "analytic", "-margin", "Inf"},
		{"-tier", "analytic", "-margin", "-Inf"},
		{"-tier", "analytic", "-margin", "1"},
		{"-tier", "analytic", "-margin", "2"},
		{"-tier", "auto", "-audit", "1"},
		{"-tier", "auto", "-audit", "NaN"},
		{"-margin", "NaN"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

func TestRunRejectsOversizedGrid(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{
		"-ilp", "1,2,3,4,5,6", "-entropy", "0,0.2,0.4,0.6,0.8,1",
		"-fp", "0,0.5", "-mem", "4,8,16,32", "-stride", "0,0.5,1",
		"-fe", "0,25,50,75,100",
	}
	if code := run(args, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 for an oversized grid", code)
	}
	if !strings.Contains(errb.String(), "grid") {
		t.Errorf("stderr %q lacks the grid-size diagnostic", errb.String())
	}
}

func TestRunInvalidProfile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-ilp", "99", "-n", "2000"}, &out, &errb); code != 1 {
		t.Errorf("exit %d, want 1 for an out-of-range profile", code)
	}
}

func TestRunTierAnalytic(t *testing.T) {
	args := append([]string{
		"-tier", "analytic", "-fe", "0,25,50,75,100", "-be", "0,50,100",
	}, tiny[:len(tiny)-2]...) // drop tiny's -fe pair, keep profile knobs
	args = append(args, "-n", "2000")
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "screened analytically") {
		t.Errorf("stderr lacks the tier summary: %s", errb.String())
	}
	if !strings.Contains(out.String(), "Pareto frontier") {
		t.Error("output lacks the confirmed frontier table")
	}
}

func TestRunTierAnalyticCSV(t *testing.T) {
	args := append([]string{"-csv", "-tier", "analytic", "-fe", "0,25,50,75,100"}, tiny[2:]...)
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if !strings.Contains(lines[0], "pred_speedup") || !strings.Contains(lines[0], "pred_energy_ratio") {
		t.Errorf("tiered CSV header lacks prediction columns: %q", lines[0])
	}
	if len(lines) < 2 {
		t.Error("tiered CSV has no confirmed rows")
	}
}

func TestRunTierAuto(t *testing.T) {
	// Tiny grid: auto must choose the exact tier (calibration would cost
	// more than the sweep).
	var out, errb bytes.Buffer
	if code := run(append([]string{"-tier", "auto"}, tiny...), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-> exact") {
		t.Errorf("auto tier did not fall back to exact on a tiny grid: %s", errb.String())
	}
}

func TestRunTierRejectsUnknown(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(append([]string{"-tier", "psychic"}, tiny...), &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunTierSampled(t *testing.T) {
	args := append([]string{
		"-tier", "sampled", "-sample-period", "12000", "-window", "1000",
		"-sample-warmup", "500",
	}, tiny[:len(tiny)-2]...)
	args = append(args, "-n", "60000")
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Pareto frontier") {
		t.Error("sampled tier output lacks the frontier table")
	}
}

func TestRunTierSampledDefaultsPeriod(t *testing.T) {
	// -tier sampled without -sample-period must fall back to the default
	// schedule rather than reject the run. The default period needs a
	// stream a few periods long, so this test uses a bigger workload than
	// tiny.
	args := []string{
		"-tier", "sampled", "-ilp", "1", "-entropy", "0", "-mem", "4",
		"-code", "4", "-passes", "4", "-fe", "0,50", "-n", "200000",
	}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
}

// TestRunRejectsSamplingOffSampledTier: a sampling flag on any tier but
// sampled is a usage error naming the sampled tier; it used to run the
// tier without sampling.
func TestRunRejectsSamplingOffSampledTier(t *testing.T) {
	for _, tier := range []string{"exact", "analytic", "auto"} {
		args := append([]string{"-tier", tier, "-sample-period", "60000"}, tiny...)
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("-tier %s: exit %d, want 2 (stderr: %s)", tier, code, errb.String())
		}
		if !strings.Contains(errb.String(), "tier sampled") {
			t.Errorf("-tier %s: error %q does not name the sampled tier", tier, errb.String())
		}
	}
}

func TestRunRejectsBadSamplingSchedule(t *testing.T) {
	// A window span that cannot fit its period is a usage error.
	args := append([]string{
		"-tier", "sampled", "-sample-period", "1000", "-window", "2000",
	}, tiny...)
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
	}
}

// TestRunSampledRegAllocSharesTimings: the Register Allocation machine has
// no fast back-end clock, so its sampled cells at BE 0/50/100 share one
// timing record per (profile, FE) and price the other two from it: 2
// baselines and 4 regalloc records simulate, the other 8 cells reprice.
func TestRunSampledRegAllocSharesTimings(t *testing.T) {
	args := []string{
		"-ilp", "2,4", "-entropy", "0", "-arch", "regalloc", "-fe", "0,50", "-be", "0,50,100",
		"-tier", "sampled", "-n", "100000", "-storestats", "-csv",
	}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	want := "14 requests, 0 memory hits, 0 disk hits, 6 sim runs (0.0% disk), 8 repriced"
	if !strings.Contains(errb.String(), want) {
		t.Errorf("stderr lacks %q:\n%s", want, errb.String())
	}
	// 2 profiles × 2 FE × 3 BE = 12 data rows.
	if lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n"); len(lines) != 13 {
		t.Errorf("CSV has %d lines, want 13", len(lines))
	}
}

// TestRunTieredRecoversExactFrontier screens a 2,079-cell grid
// analytically, confirms near the predicted frontier, and checks the
// confirmed frontier against an exact run of the whole grid: it must hold
// every exact-frontier point, while fewer than half the cells are
// confirmed. Both runs share one store, so confirmed cells simulate once.
// Heavy (every cell runs exactly): skipped under -short and the race
// detector.
func TestRunTieredRecoversExactFrontier(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("heavyweight grid test; run without -short/-race")
	}
	var fe, be []string
	for b := 0; b <= 100; b += 5 {
		fe = append(fe, fmt.Sprint(b))
	}
	for b := 0; b <= 100; b += 10 {
		be = append(be, fmt.Sprint(b))
	}
	dir := filepath.Join(t.TempDir(), "store")
	axes := []string{
		"-ilp", "1,4,6", "-entropy", "0,0.5,1", "-mem", "4", "-code", "1", "-passes", "1",
		"-fe", strings.Join(fe, ","), "-be", strings.Join(be, ","), "-n", "2000",
		"-store", dir, "-csv",
	}
	frontier := func(args ...string) (map[string]bool, int) {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(append(args, axes...), &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errb.String())
		}
		if errb.Len() > 0 {
			t.Log(strings.TrimSpace(errb.String()))
		}
		rows, err := csv.NewReader(&out).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, row := range rows[1:] {
			if row[16] == "true" {
				set[strings.Join(row[:7], "|")] = true
			}
		}
		return set, len(rows) - 1
	}
	tiered, confirmed := frontier("-tier", "analytic", "-margin", "0.02")
	exact, grid := frontier()
	for cell := range exact {
		if !tiered[cell] {
			t.Errorf("confirmed frontier misses exact-frontier cell %s", cell)
		}
	}
	t.Logf("confirmed %d of %d cells", confirmed, grid)
	if confirmed >= grid/2 {
		t.Errorf("confirmed %d of %d cells, want fewer than half", confirmed, grid)
	}
}

// TestSampledGridErrorBound runs one small grid exactly and sampled,
// sharing one store, and bounds the sampled tier's mean |IPC error| over
// its cells by 2% — the acceptance bound TestSampledScale pins on the
// paper kernels, here through the CLI on synthetic profiles and a
// non-default schedule. Skipped under -short and the race detector.
func TestSampledGridErrorBound(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("heavyweight grid test; run without -short/-race")
	}
	dir := filepath.Join(t.TempDir(), "store")
	axes := []string{
		"-ilp", "1,6", "-entropy", "0", "-mem", "4", "-code", "4", "-passes", "4",
		"-fe", "0,50,100", "-be", "50", "-n", "200000", "-store", dir, "-csv",
	}
	ipcs := func(args ...string) map[string]float64 {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(append(args, axes...), &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errb.String())
		}
		rows, err := csv.NewReader(&out).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]float64{}
		for _, row := range rows[1:] {
			ipc, err := strconv.ParseFloat(row[8], 64)
			if err != nil {
				t.Fatal(err)
			}
			m[strings.Join(row[:7], "|")] = ipc
		}
		return m
	}
	exact := ipcs()
	sampled := ipcs("-tier", "sampled", "-sample-period", "30000", "-window", "8000", "-sample-warmup", "3000")
	if len(exact) != 6 || len(sampled) != len(exact) {
		t.Fatalf("%d exact and %d sampled cells, want 6 each", len(exact), len(sampled))
	}
	sum := 0.0
	for _, cell := range slices.Sorted(maps.Keys(exact)) {
		want := exact[cell]
		got, ok := sampled[cell]
		if !ok {
			t.Fatalf("sampled run lacks cell %s", cell)
		}
		e := (got - want) / want * 100
		t.Logf("%-50s exact=%.4f sampled=%.4f err=%+.2f%%", cell, want, got, e)
		sum += math.Abs(e)
	}
	mean := sum / float64(len(exact))
	t.Logf("mean |IPC err| = %.2f%% over %d cells", mean, len(exact))
	if mean > 2 {
		t.Errorf("mean sampled |IPC err| %.2f%% exceeds 2%%", mean)
	}
}
