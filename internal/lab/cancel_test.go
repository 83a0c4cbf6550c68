package lab

// Cancellation semantics of DoContext: a canceled request must never start
// a simulation, never interrupt one that already started, and never poison
// the key for requests that are still alive.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flywheel/internal/sim"
)

// TestDoContextCanceledBeforeRun: a request that is already canceled when
// it arrives must not simulate, must not count a miss, and must not leave
// an entry behind.
func TestDoContextCanceledBeforeRun(t *testing.T) {
	c := NewCache()
	c.run = func(sim.RunConfig) (sim.Result, error) {
		t.Error("canceled request reached the simulator")
		return sim.Result{}, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.DoContext(ctx, Job{Workload: "w"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := c.Stats()
	if st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("canceled request left traces: %+v", st)
	}
}

// TestDoContextWaiterCancelLeavesFlightIntact: canceling a waiter releases
// only that waiter; the in-flight computation completes and is cached.
func TestDoContextWaiterCancelLeavesFlightIntact(t *testing.T) {
	c := NewCache()
	started := make(chan struct{})
	release := make(chan struct{})
	c.run = func(sim.RunConfig) (sim.Result, error) {
		close(started)
		<-release
		return sim.Result{Retired: 42}, nil
	}

	j := Job{Workload: "slow"}
	fillerDone := make(chan error, 1)
	go func() {
		_, err := c.Do(j)
		fillerDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.DoContext(ctx, j)
		waiterDone <- err
	}()
	// The waiter must return promptly on cancel even though the run is
	// still blocked.
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter stuck behind the in-flight run")
	}

	close(release)
	if err := <-fillerDone; err != nil {
		t.Fatalf("filler failed: %v", err)
	}
	// The result landed despite the canceled waiter.
	res, err := c.Do(j)
	if err != nil || res.Retired != 42 {
		t.Fatalf("cached result lost: %v %+v", err, res)
	}
	if got := c.Stats().Misses; got != 1 {
		t.Fatalf("misses = %d, want exactly 1 simulation", got)
	}
}

// TestDoContextCancellationDoesNotPoison: stress the race between a filler
// whose context is canceled around run start and a concurrent waiter with
// a live context. The live request must always end with a real result —
// cancellation may evict, but eviction plus the retry loop hands the
// computation to whoever is still interested.
func TestDoContextCancellationDoesNotPoison(t *testing.T) {
	c := NewCache()
	var runs atomic.Int64
	c.run = func(sim.RunConfig) (sim.Result, error) {
		runs.Add(1)
		return sim.Result{Retired: 7}, nil
	}

	for i := 0; i < 200; i++ {
		j := Job{Workload: fmt.Sprintf("race-%d", i)}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); cancel() }()
		go func() { defer wg.Done(); _, _ = c.DoContext(ctx, j) }()
		errCh := make(chan error, 1)
		go func() {
			defer wg.Done()
			res, err := c.DoContext(context.Background(), j)
			if err == nil && res.Retired != 7 {
				err = fmt.Errorf("bogus result %+v", res)
			}
			errCh <- err
		}()
		wg.Wait()
		if err := <-errCh; err != nil {
			t.Fatalf("iteration %d: live request failed: %v", i, err)
		}
	}
	if runs.Load() == 0 {
		t.Fatal("no simulation ever ran")
	}
}

// TestDoContextDiskHitDespiteLateCancel: the pre-run cancellation check
// sits after the disk tier, so a canceled-but-racing request can still be
// served from disk — cheap, and never wrong.
func TestDoContextDeadlineIsContextErr(t *testing.T) {
	c := NewCache()
	block := make(chan struct{})
	defer close(block)
	c.run = func(sim.RunConfig) (sim.Result, error) {
		<-block
		return sim.Result{}, nil
	}
	go c.Do(Job{Workload: "d"}) //nolint:errcheck
	for c.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := c.DoContext(ctx, Job{Workload: "d"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
