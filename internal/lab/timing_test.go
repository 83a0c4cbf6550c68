package lab

// Tests for the cache's timing records: jobs that differ only in node, or
// in a boost their machine's clock plan absorbs, share one simulation,
// priced per job; the records follow the same failure, panic and
// cancellation rules as the result entries.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flywheel/internal/cacti"
	"flywheel/internal/sim"
)

var figure15Nodes = []cacti.Node{cacti.Node130, cacti.Node90, cacti.Node60}

// nodeJobs lists the baseline and the Flywheel at (FE+100%, BE+50%) at
// every Figure 15 node, for each workload.
func nodeJobs(workloads ...string) []Job {
	var jobs []Job
	for _, wl := range workloads {
		for _, node := range figure15Nodes {
			jobs = append(jobs,
				Job{Workload: wl, Arch: sim.ArchBaseline, Node: node, MaxInstructions: testBudget},
				Job{Workload: wl, Arch: sim.ArchFlywheel, Node: node, FEBoostPct: 100, BEBoostPct: 50, MaxInstructions: testBudget},
			)
		}
	}
	return jobs
}

// countingSimulate wraps sim.Simulate with a call counter.
func countingSimulate(calls *atomic.Int64) func(sim.RunConfig) (sim.Timing, error) {
	return func(cfg sim.RunConfig) (sim.Timing, error) {
		calls.Add(1)
		return sim.Simulate(cfg)
	}
}

// checkSharing runs jobs on a fresh cache at each worker count and fails
// unless the cache ran misses timing simulations and repriced the other
// jobs, and every result is JSON-identical to a cache that simulates every
// job whole with sim.Run.
func checkSharing(t *testing.T, jobs []Job, misses uint64, workerCounts ...int) {
	t.Helper()
	ref := NewCache()
	ref.run = sim.Run
	want, err := Run(jobs, Options{Workers: 2, Cache: ref})
	if err != nil {
		t.Fatal(err)
	}
	if s := ref.Stats(); s.Misses != uint64(len(jobs)) || s.Repriced != 0 {
		t.Fatalf("reference cache stats %+v, want every job simulated", s)
	}
	repriced := uint64(len(jobs)) - misses
	for _, workers := range workerCounts {
		c := NewCache()
		var calls atomic.Int64
		c.simulate = countingSimulate(&calls)
		got, err := Run(jobs, Options{Workers: workers, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.Misses != misses || s.Repriced != repriced || s.Hits != 0 || calls.Load() != int64(misses) {
			t.Errorf("workers %d: stats %+v after %d simulations, want %d misses and %d repriced",
				workers, s, calls.Load(), misses, repriced)
		}
		for i := range jobs {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(want[i])
			if !bytes.Equal(g, w) {
				t.Fatalf("workers %d, job %s: priced result differs from sim.Run:\n got  %s\n want %s", workers, jobs[i].Key(), g, w)
			}
		}
	}
}

// TestTimingRecordsPriceNodeVariants: per workload the baseline simulates
// once for all three nodes and the Flywheel twice (its 90 nm plan rounds),
// at any worker count.
func TestTimingRecordsPriceNodeVariants(t *testing.T) {
	checkSharing(t, nodeJobs("gzip", "vpr"), 6, 1, 4)
}

// TestSampledJobsShareTimingRecords: a sampled record prices every job
// that shares its timing. The sampled Flywheel shares between 130 and
// 60 nm, and the Register Allocation machine, which has no fast back-end
// clock, between BE+0% and BE+100%.
func TestSampledJobsShareTimingRecords(t *testing.T) {
	samp := sim.Sampling{Period: 4_000, WindowInsts: 1_000, WarmupInsts: 500}
	var jobs []Job
	for _, node := range []cacti.Node{cacti.Node130, cacti.Node60} {
		jobs = append(jobs, Job{Workload: "gcc", Arch: sim.ArchFlywheel, Node: node,
			FEBoostPct: 100, BEBoostPct: 50, MaxInstructions: 20_000, Sampling: samp})
	}
	for _, be := range []int{0, 100} {
		jobs = append(jobs, Job{Workload: "gcc", Arch: sim.ArchRegAlloc, BEBoostPct: be,
			MaxInstructions: 20_000, Sampling: samp})
	}
	checkSharing(t, jobs, 2, 1, 2)
}

// TestRunDispatchesDistinctTimingsFirst: with two workers and jobs
// [A, A', B], where A' shares A's timing, the workers take A and B first.
// A's simulation waits for B's to start; dispatched in job order, A'
// would occupy the second worker waiting on A and B would never start.
func TestRunDispatchesDistinctTimingsFirst(t *testing.T) {
	a := Job{Workload: "gcc", Arch: sim.ArchBaseline, Node: cacti.Node130, MaxInstructions: testBudget}
	a2 := a
	a2.Node = cacti.Node60
	b := Job{Workload: "gcc", Arch: sim.ArchFlywheel, MaxInstructions: testBudget}
	c := NewCache()
	bStarted := make(chan struct{})
	c.simulate = func(cfg sim.RunConfig) (sim.Timing, error) {
		switch cfg.Arch {
		case sim.ArchBaseline:
			select {
			case <-bStarted:
			case <-time.After(5 * time.Second):
				return sim.Timing{}, errors.New("B's simulation never started while A's ran")
			}
		case sim.ArchFlywheel:
			close(bStarted)
		}
		return sim.Simulate(cfg)
	}
	res, err := Run([]Job{a, a2, b}, Options{Workers: 2, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range []Job{a, a2, b} {
		if res[i].Config != j.Config() {
			t.Errorf("result %d is for %+v, want %+v", i, res[i].Config, j.Config())
		}
	}
	if s := c.Stats(); s.Misses != 2 || s.Repriced != 1 {
		t.Errorf("stats %+v, want 2 misses and 1 repriced", s)
	}
}

// TestFreshCacheSimulatesAgain: timing records live with their cache, so a
// second cache simulates every distinct timing again.
func TestFreshCacheSimulatesAgain(t *testing.T) {
	jobs := nodeJobs("gcc")
	for i := 0; i < 2; i++ {
		c := NewCache()
		if _, err := Run(jobs, Options{Workers: 2, Cache: c}); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.Misses != 3 || s.Repriced != 3 {
			t.Fatalf("cache %d: stats %+v, want 3 misses and 3 repriced", i, s)
		}
	}
}

// TestFailedTimingRunNotMemoized: a failed timing simulation is evicted,
// so the next request for any node that shares it simulates afresh.
func TestFailedTimingRunNotMemoized(t *testing.T) {
	c := NewCache()
	var calls atomic.Int64
	c.simulate = func(cfg sim.RunConfig) (sim.Timing, error) {
		if calls.Add(1) == 1 {
			return sim.Timing{}, errors.New("transient")
		}
		return sim.Simulate(cfg)
	}
	j := Job{Workload: "gcc", Arch: sim.ArchBaseline, MaxInstructions: testBudget}
	if _, err := c.Do(j); err == nil || err.Error() != "transient" {
		t.Fatalf("first request: err %v, want the transient failure", err)
	}
	if n := len(c.timings.m); n != 0 {
		t.Fatalf("failed timing record still cached: %d records", n)
	}
	j.Node = cacti.Node60
	if _, err := c.Do(j); err != nil {
		t.Fatalf("request after the failure was not retried: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("simulate called %d times, want 2", got)
	}
}

// TestPanickingTimingRunReleasesWaiters: jobs at other nodes waiting on a
// panicking timing simulation receive the panic as an error instead of
// deadlocking, the record is evicted, and later requests simulate again.
func TestPanickingTimingRunReleasesWaiters(t *testing.T) {
	c := NewCache()
	var calls atomic.Int64
	release := make(chan struct{})
	c.simulate = func(cfg sim.RunConfig) (sim.Timing, error) {
		if calls.Add(1) == 1 {
			<-release
			panic("injected: timing core exploded")
		}
		return sim.Simulate(cfg)
	}
	var jobs []Job
	for _, node := range figure15Nodes {
		jobs = append(jobs, Job{Workload: "gcc", Arch: sim.ArchBaseline, Node: node, MaxInstructions: testBudget})
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Do(j)
		}()
	}
	// Release the panic only once the other two nodes have joined the
	// flight, so every request observes it.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Repriced < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("flight never fully formed: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters deadlocked on a panicking timing run")
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("job %d: got %v, want the panic-converted error", i, err)
		}
	}
	if n := len(c.timings.m); n != 0 || c.Stats().Entries != 0 {
		t.Fatalf("panicked flight left %d timing records and %d results", n, c.Stats().Entries)
	}
	if _, err := Run(jobs, Options{Workers: 2, Cache: c}); err != nil {
		t.Fatalf("retry after the panic: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("simulate called %d times, want 2", got)
	}
}

// TestCanceledTimingFillerHandsOver: when the request that started a
// timing simulation is canceled before the run begins, a request for
// another node waiting on that record retries and simulates it itself.
func TestCanceledTimingFillerHandsOver(t *testing.T) {
	c := NewCache()
	var calls atomic.Int64
	c.simulate = countingSimulate(&calls)
	for i := 0; i < 50; i++ {
		n := uint64(500 + i) // a new timing identity per iteration
		canceled := Job{Workload: "gcc", Arch: sim.ArchBaseline, Node: cacti.Node130, MaxInstructions: n}
		live := canceled
		live.Node = cacti.Node60
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); cancel() }()
		go func() { defer wg.Done(); _, _ = c.DoContext(ctx, canceled) }()
		res, err := c.DoContext(context.Background(), live)
		wg.Wait()
		if err != nil {
			t.Fatalf("iteration %d: live request failed: %v", i, err)
		}
		if res.Config.Node != cacti.Node60 || res.Retired == 0 {
			t.Fatalf("iteration %d: bogus result %+v", i, res)
		}
	}
	if calls.Load() == 0 {
		t.Fatal("no timing simulation ever ran")
	}
	if got, want := c.Stats().Misses, uint64(calls.Load()); got != want {
		t.Fatalf("misses %d, want %d (one per timing simulation)", got, want)
	}
}
