package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flywheel/internal/fabric"
	"flywheel/internal/lab"
	"flywheel/internal/labd"
	"flywheel/internal/sim"
)

// startWorkers brings up n in-process labd workers and returns their URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := labd.NewServer(lab.NewCache())
		srv.SetLogf(t.Logf)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// startCoord runs the labcoord command against the given workers and
// returns its address plus a stopper reporting the exit code.
func startCoord(t *testing.T, workers []string, extra ...string) (string, func() int) {
	t.Helper()
	ready := make(chan string, 1)
	stop := make(chan struct{})
	code := make(chan int, 1)
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-workers", strings.Join(workers, ","),
	}, extra...)
	var out, errb bytes.Buffer
	go func() {
		code <- run(args, &out, &errb, &control{ready: ready, stop: stop})
	}()
	var addr string
	select {
	case addr = <-ready:
	case c := <-code:
		t.Fatalf("labcoord exited early with %d\nstdout: %s\nstderr: %s", c, out.String(), errb.String())
	case <-time.After(10 * time.Second):
		t.Fatal("labcoord never became ready")
	}
	var once sync.Once
	stopper := func() int {
		once.Do(func() { close(stop) })
		select {
		case c := <-code:
			code <- c
			return c
		case <-time.After(30 * time.Second):
			t.Fatal("labcoord never exited")
			return -1
		}
	}
	t.Cleanup(func() { stopper() })
	return addr, stopper
}

// TestClusterEndToEnd: the packaged coordinator over two packaged-style
// workers matches an in-process run, reports cluster stats, and drains
// cleanly.
func TestClusterEndToEnd(t *testing.T) {
	workers := startWorkers(t, 2)
	addr, stop := startCoord(t, workers)

	jobs := make([]lab.Job, 0, 10)
	for i := 0; i < 10; i++ {
		jobs = append(jobs, lab.Job{
			Workload: "ijpeg", Arch: sim.ArchFlywheel,
			FEBoostPct: i * 3, BEBoostPct: 50, MaxInstructions: 20000,
		})
	}
	client := labd.NewClient("http://" + addr)
	lines, err := client.Sweep(labd.SweepRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lab.Run(jobs, lab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range lines {
		got, _ := json.Marshal(line.Result)
		exp, _ := json.Marshal(want[i])
		if line.Index != i || string(got) != string(exp) {
			t.Fatalf("job %d: cluster differs from in-process:\n %s\n %s", i, got, exp)
		}
	}

	// The coordinator's stats speak for the whole cluster.
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Misses == 0 {
		t.Fatalf("cluster stats show no simulations: %+v", stats.Cache)
	}

	if code := stop(); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestRegistrationGate: with an unreachable worker the coordinator refuses
// to start (exit 1) instead of serving a half-dead cluster.
func TestRegistrationGate(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close() // nothing listens here anymore

	var out, errb bytes.Buffer
	code := run([]string{
		"-addr", "127.0.0.1:0",
		"-workers", dead,
		"-wait", "300ms",
	}, &out, &errb, nil)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unhealthy") {
		t.Fatalf("stderr does not name the unhealthy worker: %s", errb.String())
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{},                         // no workers
		{"-workers", " , "},        // empty after trimming
		{"-bogus"},                 // unknown flag
		{"-workers", "x", "stray"}, // positional junk
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb, nil); code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		}
	}
}

// TestResilienceFlagsAndScrub: the packaged coordinator accepts the
// failover/hedge/deadline flags, reports every worker on /v1/health, and
// fans POST /v1/scrub out to every worker.
func TestResilienceFlagsAndScrub(t *testing.T) {
	workers := startWorkers(t, 2)
	addr, _ := startCoord(t, workers,
		"-retry-backoff", "10ms",
		"-hedge-min", "100ms",
		"-job-timeout", "30s",
	)

	resp, err := http.Get("http://" + addr + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health fabric.ClusterHealth
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Workers) != 2 {
		t.Fatalf("health: %+v, want ok with 2 workers", health)
	}
	for _, u := range workers {
		if !health.Workers[u] {
			t.Fatalf("worker %s reported unhealthy: %+v", u, health)
		}
	}

	sresp, err := http.Post("http://"+addr+"/v1/scrub", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("scrub status %d", sresp.StatusCode)
	}
	var scrub fabric.ClusterScrub
	if err := json.NewDecoder(sresp.Body).Decode(&scrub); err != nil {
		t.Fatal(err)
	}
	if len(scrub.Workers) != 2 {
		t.Fatalf("scrub reached %d workers, want 2: %+v", len(scrub.Workers), scrub)
	}
	for _, w := range scrub.Workers {
		if w.Error != "" {
			t.Fatalf("worker %s scrub error: %s", w.URL, w.Error)
		}
	}
}
