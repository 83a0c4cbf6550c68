package fabric

// Failover tests: retry delays spread out instead of stampeding, a worker
// that accepts a request and never answers is failed over rather than
// waited on forever, and a retry's delay never holds up a hedge that is
// already answering.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flywheel/internal/lab"
	"flywheel/internal/labd"
)

// TestRetryDelaySpread: the failover delay is a flat jittered draw over
// [RetryBackoff/2, RetryBackoff] — concurrent retries draw well-spread
// delays instead of a synchronized wave.
func TestRetryDelaySpread(t *testing.T) {
	c, err := New(Options{
		Workers:      []string{"http://w1", "http://w2"},
		RetryBackoff: 64 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[time.Duration]bool{}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := c.retryDelay()
			if d < 32*time.Millisecond || d > 64*time.Millisecond {
				t.Errorf("delay %v outside [32ms, 64ms]", d)
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
		inner.ServeHTTP(w, r)
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
	if coord.snapshot().Retries == 0 {
		t.Fatal("stall rescued without a retry — deadline path untested")
	}
	if goodCache.Stats().Misses == 0 {
		t.Fatal("replica did no rescue work")
	}
}

// TestHedgeAnswersDuringRetryDelay: with three replicas, a hedge goes out
// and then the executing shard fails. The hedge's answer must end the job
// while the retry's delay is still running, and the third replica must
// never be asked. The workers order the events themselves: the executer
// fails only once the hedge has reached the replica, and the replica
// answers only after that failure.
func TestHedgeAnswersDuringRetryDelay(t *testing.T) {
	const (
		execer = iota
		hedged
		third
	)
	hedgeArrived, execerFailed := make(chan struct{}), make(chan struct{})
	var onceHedge, onceFail sync.Once
	var thirdSweeps atomic.Int64
	var roles [3]atomic.Int32
	var urls []string
	for i := range roles {
		srv := labd.NewServer(lab.NewCache())
		srv.SetLogf(func(string, ...any) {})
		inner := srv.Handler()
		role := &roles[i]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/sweep") {
				inner.ServeHTTP(w, r)
				return
			}
			switch role.Load() {
			case execer:
				select {
				case <-hedgeArrived:
				case <-r.Context().Done():
				}
				http.Error(w, "injected failure", http.StatusInternalServerError)
				onceFail.Do(func() { close(execerFailed) })
				return
			case hedged:
				onceHedge.Do(func() { close(hedgeArrived) })
				select {
				case <-execerFailed:
				case <-r.Context().Done():
				}
				time.Sleep(50 * time.Millisecond) // let the failure reach the coordinator
			case third:
				thirdSweeps.Add(1)
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}

	const backoff = 2 * time.Second
	coord, err := New(Options{
		Workers:       urls,
		Replicas:      3,
		HedgeDelayMin: 20 * time.Millisecond,
		RetryBackoff:  backoff,
		JobTimeout:    10 * time.Second,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []lab.Job{{Workload: "gcc", MaxInstructions: 2000}}
	for k, url := range coord.ring.Owners(jobs[0].Key(), 3) {
		roles[slices.Index(urls, url)].Store(int32(k))
	}

	start := time.Now()
	assertMatchesInProcess(t, jobs, collectSweep(t, coord, jobs, nil))
	if elapsed := time.Since(start); elapsed >= backoff/2 {
		t.Errorf("job took %v: the hedge's answer waited out the retry delay (at least %v)", elapsed, backoff/2)
	}
	if coord.snapshot().Hedges != 1 {
		t.Errorf("%d hedges, want 1", coord.snapshot().Hedges)
	}
	if n := coord.snapshot().Retries; n != 0 {
		t.Errorf("%d retries sent after the hedge had answered", n)
	}
	if n := thirdSweeps.Load(); n != 0 {
		t.Errorf("the third replica was asked %d times after the hedge had answered", n)
	}
}
