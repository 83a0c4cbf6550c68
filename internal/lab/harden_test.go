package lab

// Regression tests for the cache's failure semantics: a panicking run must
// not strand waiters on an unclosed done channel, and a failed run must
// not poison its key for the process lifetime.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flywheel/internal/sim"
)

// TestPanickingRunReleasesWaiters: a deliberately panicking workload used
// to leave entry.done unclosed, deadlocking every concurrent waiter on the
// same key forever. Now the panic becomes an error result delivered to all
// waiters.
func TestPanickingRunReleasesWaiters(t *testing.T) {
	c := NewCache()
	started := make(chan struct{})
	var startedOnce sync.Once
	c.run = func(cfg sim.RunConfig) (sim.Result, error) {
		// A late waiter can arrive after the eviction and start a second
		// flight, so the run function must tolerate being called again.
		startedOnce.Do(func() { close(started) })
		time.Sleep(10 * time.Millisecond) // let waiters pile up
		panic("injected: workload exploded")
	}

	j := Job{Workload: "panicker"}
	const waiters = 8
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Do(j)
		}(i)
	}

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters deadlocked on a panicking run")
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter %d: got %v, want a panic-converted error", i, err)
		}
	}
	<-started
}

// TestPanickingRunThroughLabRun drives the same scenario through the
// worker pool: Run must return the error, not hang.
func TestPanickingRunThroughLabRun(t *testing.T) {
	c := NewCache()
	c.run = func(cfg sim.RunConfig) (sim.Result, error) {
		panic("injected")
	}
	jobs := []Job{{Workload: "a"}, {Workload: "a"}, {Workload: "a"}, {Workload: "a"}}
	done := make(chan error, 1)
	go func() {
		_, err := Run(jobs, Options{Workers: 4, Cache: c})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil error for a panicking job")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked on a panicking job")
	}
}

// TestErrorNotPoisoned: a failed run is retried on the next request — the
// entry is evicted, not negatively cached for the process lifetime.
func TestErrorNotPoisoned(t *testing.T) {
	c := NewCache()
	var calls atomic.Int64
	c.run = func(cfg sim.RunConfig) (sim.Result, error) {
		if calls.Add(1) == 1 {
			return sim.Result{}, errors.New("transient: workload not yet registered")
		}
		return sim.Result{TimePS: 42}, nil
	}

	j := Job{Workload: "flaky"}
	if _, err := c.Do(j); err == nil {
		t.Fatal("first request: got nil error, want the transient failure")
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("failed entry still cached: Len() = %d, want 0", n)
	}
	res, err := c.Do(j)
	if err != nil {
		t.Fatalf("second request was not retried: %v", err)
	}
	if res.TimePS != 42 {
		t.Fatalf("second request: TimePS = %d, want 42", res.TimePS)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("run called %d times, want 2", got)
	}
}

// TestErrorDeliveredToInFlightWaiters: waiters that joined the flight
// before the failure still receive the original error (they are not
// silently retried), and the key is free afterwards.
func TestErrorDeliveredToInFlightWaiters(t *testing.T) {
	c := NewCache()
	release := make(chan struct{})
	var calls atomic.Int64
	c.run = func(cfg sim.RunConfig) (sim.Result, error) {
		if calls.Add(1) == 1 {
			<-release
			return sim.Result{}, errors.New("boom")
		}
		return sim.Result{TimePS: 7}, nil
	}

	j := Job{Workload: "w"}
	const waiters = 6
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Do(j)
		}(i)
	}
	// Wait until the single flight is running AND every other waiter has
	// joined it (each join counts a hit) — otherwise a late waiter could
	// arrive after the eviction and trigger a fresh, successful run.
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() == 0 || c.Stats().Hits < uint64(waiters-1) {
		if time.Now().After(deadline) {
			t.Fatalf("flight never fully formed: %d calls, %d hits", calls.Load(), c.Stats().Hits)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err == nil || err.Error() != "boom" {
			t.Fatalf("waiter %d: got %v, want the original error", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("in-flight waiters triggered %d runs, want 1", got)
	}
	if res, err := c.Do(j); err != nil || res.TimePS != 7 {
		t.Fatalf("post-failure request: res=%+v err=%v, want a fresh successful run", res, err)
	}
}

// TestRunConcurrentMixedKeysUnderPanic exercises eviction and panic
// recovery under the race detector with many goroutines and several keys.
func TestRunConcurrentMixedKeysUnderPanic(t *testing.T) {
	c := NewCache()
	var calls atomic.Int64
	c.run = func(cfg sim.RunConfig) (sim.Result, error) {
		n := calls.Add(1)
		switch n % 3 {
		case 0:
			panic(fmt.Sprintf("injected %d", n))
		case 1:
			return sim.Result{}, errors.New("injected error")
		default:
			return sim.Result{TimePS: int64(n)}, nil
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j := Job{Workload: fmt.Sprintf("w%d", (g+i)%5)}
				c.Do(j)
			}
		}(g)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock under concurrent panics")
	}
}
