package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"flywheel/internal/fabric"
	"flywheel/internal/lab"
	"flywheel/internal/labd"
)

func startWorker(t *testing.T) string {
	t.Helper()
	srv := labd.NewServer(lab.NewCache())
	srv.SetLogf(t.Logf)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// startCoordinator serves a fabric coordinator over two fresh workers.
func startCoordinator(t *testing.T) string {
	t.Helper()
	coord, err := fabric.New(fabric.Options{
		Workers: []string{startWorker(t), startWorker(t)},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestLoadReport: a short replay against a live worker, or a coordinator
// whose stats reply is a cluster sum, exits 0 and prints the three report
// lines — throughput, latency percentiles, tier split.
func TestLoadReport(t *testing.T) {
	targets := map[string]string{"worker": startWorker(t), "coordinator": startCoordinator(t)}
	for name, url := range targets {
		t.Run(name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run([]string{
				"-url", url, "-n", "12", "-c", "3", "-batch", "2",
				"-space", "8", "-frontier", "0.25", "-ninstr", "2000",
			}, &out, &errb)
			if code != 0 {
				t.Fatalf("exit code %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
			}
			got := out.String()
			for _, want := range []string{"12 requests", "0 errors", "latency: p50", "p99", "cache tiers:", "sim "} {
				if !strings.Contains(got, want) {
					t.Errorf("report missing %q:\n%s", want, got)
				}
			}
		})
	}

	// After the whole universe is memoized, a replay against the worker
	// simulates nothing — the tier report shows it all served from cache.
	// (A coordinator may steal a job to a worker that does not hold it.)
	url := targets["worker"]
	if _, err := labd.NewClient(url).Sweep(labd.SweepRequest{Jobs: buildUniverse(8, 2000)}); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{
		"-url", url, "-n", "12", "-c", "3", "-batch", "2",
		"-space", "8", "-frontier", "0", "-ninstr", "2000",
	}, &out, &errb); code != 0 {
		t.Fatalf("warm replay failed: %s", errb.String())
	}
	if !strings.Contains(out.String(), "memory 100.0%") || !strings.Contains(out.String(), "sim 0.0%") {
		t.Errorf("warm replay not served from memory:\n%s", out.String())
	}
}

func TestUnreachableTarget(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-url", "http://127.0.0.1:1", "-n", "1"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unreachable") {
		t.Errorf("stderr: %s", errb.String())
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-c", "0"},
		{"-zipf", "0.5"},
		{"-frontier", "2"},
		{"-bogus"},
		{"stray"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		}
	}
}

// TestChaosDrill: with -chaos the run injects seeded transport faults and
// the client's resume path absorbs the stream cuts; -minresumes turns the
// absorption into a hard gate. Fault draws depend on the ephemeral port,
// so the assertion is "recovery happened", not an exact count.
func TestChaosDrill(t *testing.T) {
	url := startWorker(t)
	var out, errb bytes.Buffer
	code := run([]string{
		"-url", url, "-n", "60", "-c", "4", "-batch", "2",
		"-space", "8", "-frontier", "0", "-ninstr", "2000",
		"-chaos", "7", "-minresumes", "1",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "chaos:") || !strings.Contains(got, "resumed") {
		t.Fatalf("report missing chaos summary:\n%s", got)
	}
}

// TestMinResumesGate: a clean run that cannot possibly resume fails the
// gate with a diagnostic instead of passing vacuously.
func TestMinResumesGate(t *testing.T) {
	url := startWorker(t)
	var out, errb bytes.Buffer
	code := run([]string{
		"-url", url, "-n", "4", "-c", "1", "-batch", "1",
		"-space", "4", "-frontier", "0", "-ninstr", "2000",
		"-minresumes", "999",
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(errb.String(), "minresumes") {
		t.Fatalf("gate failure not diagnosed: %s", errb.String())
	}
}
