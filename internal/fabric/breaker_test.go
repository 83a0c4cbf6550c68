package fabric

// Circuit-breaker, backoff-jitter and job-deadline tests: the fabric's
// self-healing layer. A worker that fails repeatedly is ejected from
// routing, re-admitted on probation after a cooldown, and rejoined on its
// first success; retry delays spread out instead of stampeding; a worker
// that accepts a request and never answers is failed over, not waited on
// forever.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flywheel/internal/lab"
	"flywheel/internal/labd"
)

func TestBreakerStateMachine(t *testing.T) {
	b := breaker{threshold: 3, cooldown: 30 * time.Millisecond}

	// Sub-threshold failure runs never trip; a success resets the run.
	b.onFailure()
	b.onFailure()
	b.onSuccess()
	b.onFailure()
	b.onFailure()
	if !b.routable() || b.label() != "closed" {
		t.Fatalf("tripped below threshold: %s", b.label())
	}
	b.onFailure()
	if b.routable() || b.label() != "open" {
		t.Fatalf("threshold did not trip: %s", b.label())
	}
	if trips, rejoins := b.counters(); trips != 1 || rejoins != 0 {
		t.Fatalf("counters after trip: %d/%d", trips, rejoins)
	}

	// Cooldown elapses: the next router admits trial traffic (half-open).
	time.Sleep(35 * time.Millisecond)
	if !b.routable() || b.label() != "half-open" {
		t.Fatalf("cooldown did not half-open: %s", b.label())
	}
	// A failed trial re-arms the cooldown.
	b.onFailure()
	if b.routable() || b.label() != "open" {
		t.Fatalf("failed trial did not re-open: %s", b.label())
	}
	if trips, _ := b.counters(); trips != 1 {
		t.Fatalf("re-arming counted as a new trip: %d", trips)
	}
	// A successful trial rejoins.
	time.Sleep(35 * time.Millisecond)
	if !b.probeDue() {
		t.Fatal("probe not due after cooldown")
	}
	b.onSuccess()
	if !b.routable() || b.label() != "closed" {
		t.Fatalf("successful trial did not close: %s", b.label())
	}
	if trips, rejoins := b.counters(); trips != 1 || rejoins != 1 {
		t.Fatalf("counters after rejoin: %d/%d", trips, rejoins)
	}
}

// TestRetryDelaySpread: the backoff is exponential (doubling, capped) and
// jittered — concurrent retries of the same attempt draw well-spread
// delays instead of a synchronized wave.
func TestRetryDelaySpread(t *testing.T) {
	c, err := New(Options{
		Workers:         []string{"http://w1", "http://w2"},
		RetryBackoff:    64 * time.Millisecond,
		RetryBackoffMax: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 2: range (128ms/2, 128ms].
	var mu sync.Mutex
	seen := map[time.Duration]bool{}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := c.retryDelay(2)
			if d < 64*time.Millisecond || d > 128*time.Millisecond {
				t.Errorf("attempt-2 delay %v outside [64ms, 128ms]", d)
			}
			mu.Lock()
			seen[d] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(seen) < 10 {
		t.Fatalf("64 concurrent delays collapsed to %d distinct values — no jitter", len(seen))
	}
	// Deep attempts saturate at the cap, jitter included.
	for i := 0; i < 32; i++ {
		if d := c.retryDelay(30); d < time.Second || d > 2*time.Second {
			t.Fatalf("capped delay %v outside [1s, 2s]", d)
		}
	}
	// Attempt 1 starts at the base.
	if d := c.retryDelay(1); d < 32*time.Millisecond || d > 64*time.Millisecond {
		t.Fatalf("attempt-1 delay %v outside [32ms, 64ms]", d)
	}
}

// TestJobTimeoutFailsOverStalledWorker: a worker that accepts a sweep and
// then never writes a byte must not hang the sweep — the per-job deadline
// expires and the job retries on the replica. Hedging is disabled so the
// deadline is the only rescue path.
func TestJobTimeoutFailsOverStalledWorker(t *testing.T) {
	goodCache := lab.NewCache()
	goodSrv := labd.NewServer(goodCache)
	good := httptest.NewServer(goodSrv.Handler())
	t.Cleanup(good.Close)

	stallSrv := labd.NewServer(lab.NewCache())
	stallSrv.SetLogf(func(string, ...any) {})
	inner := stallSrv.Handler()
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/sweep") {
			// Accept the whole request, then never answer. The body must
			// be drained or the server would not notice the caller
			// abandoning the request (and the test server could not shut
			// down).
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		}
		inner.ServeHTTP(w, r) // health stays green: the breaker is not the rescue here
	}))
	t.Cleanup(stall.Close)

	coord, err := New(Options{
		Workers:       []string{stall.URL, good.URL},
		HedgeDelayMin: -1,
		JobTimeout:    200 * time.Millisecond,
		RetryBackoff:  5 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Jobs homed on the staller, so every one must be rescued by timeout.
	var jobs []lab.Job
	for fe := 0; len(jobs) < 4 && fe < 200; fe++ {
		j := lab.Job{Workload: "gcc", FEBoostPct: fe, MaxInstructions: 2000}
		if coord.Owner(j.Key()) == stall.URL {
			jobs = append(jobs, j)
		}
	}
	done := make(chan []labd.SweepLine, 1)
	go func() { done <- collectSweep(t, coord, jobs, nil) }()
	select {
	case lines := <-done:
		assertMatchesInProcess(t, jobs, lines)
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung on the stalled worker: job deadline never fired")
	}
	if coord.retries.Load() == 0 {
		t.Fatal("stall rescued without a retry — deadline path untested")
	}
	if goodCache.Misses() == 0 {
		t.Fatal("replica did no rescue work")
	}
}

// TestBreakerEjectsAndRejoins drives the full lifecycle through real
// traffic: a worker turns unhealthy and is ejected (sweeps keep
// succeeding via its replica), then turns healthy and a probe rejoins it.
func TestBreakerEjectsAndRejoins(t *testing.T) {
	var down atomic.Bool
	mk := func() (*httptest.Server, *lab.Cache) {
		cache := lab.NewCache()
		srv := labd.NewServer(cache)
		srv.SetLogf(func(string, ...any) {})
		inner := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts, cache
	}
	flakyCache := lab.NewCache()
	flakySrv := labd.NewServer(flakyCache)
	flakySrv.SetLogf(func(string, ...any) {})
	flakyInner := flakySrv.Handler()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		flakyInner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	steady, steadyCache := mk()
	_ = steadyCache

	coord, err := New(Options{
		Workers:          []string{flaky.URL, steady.URL},
		HedgeDelayMin:    -1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // expired manually below for the rejoin phase
		RetryBackoff:     time.Millisecond,
		RetryBackoffMax:  4 * time.Millisecond,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	flakyShard := coord.shards[flaky.URL]

	// Outage: the sweep still answers (failover), and the repeated
	// failures trip the flaky worker's breaker.
	down.Store(true)
	jobs := testBatch(10)
	lines := collectSweep(t, coord, jobs, nil)
	assertMatchesInProcess(t, jobs, lines)
	if trips, _ := flakyShard.brk.counters(); trips == 0 {
		t.Fatal("outage did not trip the breaker")
	}

	// Ejected: new sweeps route entirely around the flaky worker (no new
	// requests reach it) while its breaker stays open.
	if flakyShard.brk.label() != "open" {
		t.Fatalf("breaker %s after outage, want open", flakyShard.brk.label())
	}
	before := flakyShard.requests.Load()
	lines = collectSweep(t, coord, testBatch(6), nil)
	if got := flakyShard.requests.Load(); got != before {
		t.Fatalf("ejected worker still received %d requests", got-before)
	}

	// Recovery + probe: once the cooldown has passed (forced here rather
	// than slept through) a health probe rejoins the recovered worker.
	down.Store(false)
	flakyShard.brk.mu.Lock()
	flakyShard.brk.openedAt = time.Now().Add(-2 * time.Hour)
	flakyShard.brk.mu.Unlock()
	coord.probeOnce(context.Background())
	if flakyShard.brk.label() != "closed" {
		t.Fatalf("breaker %s after recovery probe, want closed", flakyShard.brk.label())
	}
	if _, rejoins := flakyShard.brk.counters(); rejoins == 0 {
		t.Fatal("rejoin not counted")
	}

	// The background loop drives the same probes on a ticker.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.opt.ProbeInterval = 10 * time.Millisecond
	coord.StartHealthProbes(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for coord.probes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("StartHealthProbes never probed")
		}
		time.Sleep(time.Millisecond)
	}

	// Stats and health surface the breaker.
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	var health ClusterHealth
	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Breakers[flaky.URL] != "closed" || health.Breakers[steady.URL] != "closed" {
		t.Fatalf("health breakers: %+v", health.Breakers)
	}
	var stats ClusterStats
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, ws := range stats.Workers {
		if ws.URL == flaky.URL && (ws.BreakerTrips == 0 || ws.BreakerRejoins == 0) {
			t.Fatalf("stats did not surface breaker lifecycle: %+v", ws)
		}
	}
}
