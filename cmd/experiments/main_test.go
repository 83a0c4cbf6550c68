package main

import (
	"bytes"
	"strings"
	"testing"

	"flywheel/internal/sim"
)

func TestRunStaticTables(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "1,t1,t2"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"Figure 1", "Table 1", "Table 2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

func TestRunMarkdown(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "t1", "-md"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "|") {
		t.Error("markdown output lacks table pipes")
	}
}

func TestRunSimulatedFigureWithParallelFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-fig", "11", "-n", "3000", "-parallel", "4"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 11") {
		t.Error("output lacks Figure 11")
	}
	if !strings.Contains(out.String(), "average") {
		t.Error("output lacks the average row")
	}
}

func TestInstructionsAliasMatchesN(t *testing.T) {
	var a, b, errb bytes.Buffer
	if code := run([]string{"-fig", "11", "-n", "3000"}, &a, &errb); code != 0 {
		t.Fatalf("-n run: exit %d, stderr: %s", code, errb.String())
	}
	if code := run([]string{"-fig", "11", "-instructions", "3000"}, &b, &errb); code != 0 {
		t.Fatalf("-instructions run: exit %d, stderr: %s", code, errb.String())
	}
	if a.String() != b.String() {
		t.Error("-n and -instructions produce different output")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "flag") {
		t.Errorf("stderr %q lacks flag usage", errb.String())
	}
}

func TestRunBadNode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "11", "-n", "3000", "-node", "0.42"}, &out, &errb); code != 1 {
		t.Errorf("exit %d, want 1 for an unsupported node", code)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "t1,fig99"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("unknown figure still printed output: %q", out.String())
	}
	for _, want := range []string{`"fig99"`, "residency", "all"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr %q lacks %s", errb.String(), want)
		}
	}
}

// TestStoreWarmPasses runs three passes over one result store, each
// standing in for a fresh process (the in-memory trace cache is dropped
// before it): Figure 11 twice, then Figure 12 over new grid cells. The
// second pass must be served entirely from disk, and the third, whose
// cells are new, records each workload's trace once more: recordings do
// not outlive the process.
func TestStoreWarmPasses(t *testing.T) {
	dir := t.TempDir()
	t.Cleanup(sim.ResetTraceCache)
	pass := func(fig string) (stdout, stderr string) {
		t.Helper()
		sim.ResetTraceCache()
		var out, errb bytes.Buffer
		if code := run([]string{"-fig", fig, "-n", "20000", "-store", dir, "-storestats"}, &out, &errb); code != 0 {
			t.Fatalf("fig %s: exit %d, stderr: %s", fig, code, errb.String())
		}
		return out.String(), errb.String()
	}
	expect := func(name, stats string, wants ...string) {
		t.Helper()
		for _, want := range wants {
			if !strings.Contains(stats, want) {
				t.Errorf("%s stats lack %q:\n%s", name, want, stats)
			}
		}
	}

	out1, stats1 := pass("11")
	out2, stats2 := pass("11")
	if out1 != out2 {
		t.Errorf("pass 2 tables differ from pass 1:\n%s\nvs\n%s", out1, out2)
	}
	// Pass 1 records each workload's dynamic trace exactly once; the
	// all-disk pass 2 simulates and re-emulates nothing.
	expect("pass 1", stats1, "trace cache: 20 replays, 10 recordings, 0 bypasses")
	expect("pass 2", stats2, " 0 sim runs (100.0% disk)", "trace cache: 0 replays, 0 recordings")
	_, stats3 := pass("12")
	expect("pass 3", stats3, " 10 recordings, 0 bypasses")
}
