package labd_test

// Request-lifecycle regression tests: a disconnected client must stop
// consuming the service, and undeliverable replies must be counted.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"flywheel/internal/lab"
	"flywheel/internal/labd"
	"flywheel/internal/sim"
)

func jsonBody(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}

// TestSweepClientDisconnectStopsSimulations: before the fix, handleSweep
// ignored r.Context(), so a canceled request's remaining jobs (up to the
// 65,536-job batch cap) kept simulating and occupying the service-wide
// semaphore. Now unstarted jobs are skipped: after the disconnect the
// cache's simulation count settles and stays put, far below the batch
// size. Finished work still lands in the cache.
func TestSweepClientDisconnectStopsSimulations(t *testing.T) {
	cache := lab.NewCache()
	ts, _ := startServer(t, cache)

	// Distinct slow jobs, simulated one at a time (Workers:1) so the
	// disconnect window is deterministic: at most one job is mid-flight
	// when the client vanishes. The budget is deliberately large — each
	// job's timing run takes tens of milliseconds even with the process's
	// trace cache and warm snapshots warm from other tests, so cancellation
	// propagates many jobs before the batch could drain on its own.
	const total = 40
	jobs := make([]lab.Job, total)
	for i := range jobs {
		jobs[i] = lab.Job{Workload: "ijpeg", Arch: sim.ArchFlywheel,
			FEBoostPct: i * 2, BEBoostPct: 50, MaxInstructions: 150000}
	}
	body, err := jsonBody(labd.SweepRequest{Jobs: jobs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read three result lines, then vanish mid-stream.
	rd := bufio.NewReader(resp.Body)
	for i := 0; i < 3; i++ {
		if _, err := rd.ReadString('\n'); err != nil {
			t.Fatalf("reading line %d: %v", i, err)
		}
	}
	cancel()

	// Wait for the simulation count to genuinely settle: nothing in
	// flight and no new miss for a sustained window. (A goroutine that won
	// the semaphore just before the cancellation propagated may legally
	// finish one more job; what must NOT happen is the batch grinding on.)
	deadline := time.Now().Add(10 * time.Second)
	settled := cache.Stats().Misses
	stableSince := time.Now()
	for {
		st := cache.Stats()
		if st.InFlight == 0 && st.Misses == settled {
			if time.Since(stableSince) > 500*time.Millisecond {
				break
			}
		} else {
			settled = st.Misses
			stableSince = time.Now()
		}
		if time.Now().After(deadline) {
			t.Fatalf("simulations never settled after disconnect: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if settled >= total/2 {
		t.Fatalf("disconnect did not stop the batch: %d of %d jobs simulated", settled, total)
	}
	if settled < 3 {
		t.Fatalf("finished work lost: only %d simulations for 3 delivered lines", settled)
	}
}

// TestSweepDisconnectCountsDroppedReply: the aborted stream shows up in
// /v1/stats as a dropped reply and skipped jobs as canceled_jobs.
func TestSweepDisconnectCountsDroppedReply(t *testing.T) {
	ts, client := startServer(t, lab.NewCache())

	// Distinct slow jobs. The baseline has no front-end boost, so its
	// boost variants would share one timing record and finish at once;
	// the Flywheel simulates each boost anew.
	jobs := make([]lab.Job, 12)
	for i := range jobs {
		jobs[i] = lab.Job{Workload: "gcc", Arch: sim.ArchFlywheel, FEBoostPct: i, MaxInstructions: 150000}
	}
	body, err := jsonBody(labd.SweepRequest{Jobs: jobs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.DroppedReplies >= 1 && st.CanceledJobs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnect not accounted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthEndpoint(t *testing.T) {
	_, client := startServer(t, lab.NewCache())
	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version == "" {
		t.Fatalf("health reply: %+v", h)
	}
}
