package fabric

// End-to-end chaos drill: the full client → coordinator → worker stack
// under scripted transport faults and planted store corruption. The
// invariants are absolute — every job answered exactly once, results
// byte-identical to a fault-free in-process run, and a cluster scrub
// finds every file we damaged — because "mostly recovered" is
// indistinguishable from broken in a result cache.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flywheel/internal/chaos"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/labd"
)

// clientHopPlan is the chaos drill's seeded fault plan for the
// client→coordinator hop: half the sweep replies are cut mid-NDJSON, a few
// requests are dropped outright.
var clientHopPlan = chaos.Plan{Seed: 99, Drop: 0.05, Truncate: 0.5, PathSubstr: "/v1/sweep"}

// TestChaosSweepExactUnderFaults runs 48 jobs through a 2-worker cluster
// with faults on both hops: a scripted outage window on the worker that
// owns the most jobs (the coordinator retries each failed job on its
// replica) and seeded stream cuts on the client→coordinator hop (the labd
// client's resume path re-requests the missing suffix). Everything still
// has to come back exactly once, in order, byte-identical to lab.Run.
func TestChaosSweepExactUnderFaults(t *testing.T) {
	jobs := testBatch(48)
	var workerChaos *chaos.RoundTripper
	var sick int
	tc := startCluster(t, 2, func(o *Options) {
		// Placement follows the ports the test servers got; aiming the
		// outage at the busiest worker makes sure it meets traffic.
		sick = busiest(NewRing(o.Workers, o.VNodes), o.Workers, jobs)
		workerChaos = chaos.New(chaos.Plan{
			Seed:       42,
			Delay:      0.2,
			MaxDelay:   10 * time.Millisecond,
			PathSubstr: "/v1/sweep",
			Outages: []chaos.Outage{
				{Host: strings.TrimPrefix(o.Workers[sick], "http://"), After: 3, For: 8},
			},
		}, nil)
		o.HTTPClient = &http.Client{Transport: workerChaos}
		o.HedgeDelayMin = -1
		o.RetryBackoff = 2 * time.Millisecond
	})
	front := httptest.NewServer(tc.coord.Handler())
	t.Cleanup(front.Close)

	// The outer client gets its own fault injector (clientHopPlan). Resume
	// absorbs its faults; the budget is generous because faults also hit
	// the re-requests.
	client := labd.NewClient(front.URL)
	client.MaxResumes = 50
	client.HTTPClient = &http.Client{Transport: chaos.New(clientHopPlan, nil)}

	var combined []labd.SweepLine
	for off := 0; off < len(jobs); off += 4 {
		lines, err := client.Sweep(labd.SweepRequest{Jobs: jobs[off : off+4]})
		if err != nil {
			t.Fatalf("batch at %d failed under chaos: %v", off, err)
		}
		for i, line := range lines {
			line.Index = off + i
			combined = append(combined, line)
		}
	}
	// Exactly once, in order, byte-identical: assertMatchesInProcess
	// checks index, key, and payload of every line against lab.Run.
	assertMatchesInProcess(t, jobs, combined)

	// The drill must have actually drilled.
	if workerChaos.Counts().OutageFailures == 0 {
		t.Fatal("outage window never fired — worker hop untested")
	}
	if tc.coord.snapshot().Retries == 0 {
		t.Fatal("no coordinator retries under an outage")
	}
	if client.Resumes() == 0 {
		t.Fatal("no client resumes despite stream cuts")
	}

	// The outage window is spent: a fresh sweep through the healed
	// cluster is still exact.
	again := collectSweep(t, tc.coord, jobs[:8], nil)
	assertMatchesInProcess(t, jobs[:8], again)
}

// TestChaosClientHopNeedsResume is the removal test for labd.Client's
// stream resume: the drill's client-hop faults, with resumption disabled,
// over three passes of the drill's 4-job batches to a fault-free cluster.
// The rolls are keyed by host name, not port, so the seed replays and the
// failed-batch count is pinned. Without resume batches fail, so the drill
// above needs it.
func TestChaosClientHopNeedsResume(t *testing.T) {
	jobs := testBatch(48)
	tc := startCluster(t, 2, nil)
	front := httptest.NewServer(tc.coord.Handler())
	t.Cleanup(front.Close)
	client := labd.NewClient(front.URL)
	client.MaxResumes = -1
	client.HTTPClient = &http.Client{Transport: chaos.New(clientHopPlan, nil)}
	failed, batches := 0, 0
	for pass := 0; pass < 3; pass++ {
		for off := 0; off < len(jobs); off += 4 {
			batches++
			if _, err := client.Sweep(labd.SweepRequest{Jobs: jobs[off : off+4]}); err != nil {
				failed++
			}
		}
	}
	if failed != 22 {
		t.Fatalf("%d of %d batches failed without resume, want the seed's 22", failed, batches)
	}
	if client.Resumes() != 0 {
		t.Fatalf("client resumed %d times with resumption disabled", client.Resumes())
	}
}

// TestClusterScrubFindsAllPlantedCorruption: a disk-backed 2-worker
// cluster is damaged in every way the store's checksum must catch —
// garbage bytes, mid-file truncation, a checksum flip — and one
// coordinator POST /v1/scrub has to quarantine exactly the damaged
// files on every shard, after which the cluster still answers the
// original batch byte-identically.
func TestClusterScrubFindsAllPlantedCorruption(t *testing.T) {
	root := t.TempDir()
	var urls []string
	for i := 0; i < 2; i++ {
		st, err := store.Open(store.ShardDir(root, i))
		if err != nil {
			t.Fatal(err)
		}
		srv := labd.NewServer(lab.NewCacheWithStore(st))
		srv.SetLogf(func(string, ...any) {})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	coord, err := New(Options{Workers: urls, RetryBackoff: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	jobs := testBatch(24)
	assertMatchesInProcess(t, jobs, collectSweep(t, coord, jobs, nil))

	// Plant deterministic damage on each shard: one file of garbage, one
	// truncated mid-way, one with a flipped checksum digit.
	planted := map[string]bool{}
	for i := 0; i < 2; i++ {
		files, err := filepath.Glob(filepath.Join(store.ShardDir(root, i), store.Version(), "*", "*.json"))
		if err != nil || len(files) < 3 {
			t.Fatalf("shard %d has %d entries (err %v), need 3 victims", i, len(files), err)
		}
		if err := os.WriteFile(files[0], []byte("not even json"), 0o644); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(files[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(files[1], data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		data, err = os.ReadFile(files[2])
		if err != nil {
			t.Fatal(err)
		}
		sum := []byte(`"sum":"`)
		at := strings.Index(string(data), string(sum))
		if at < 0 {
			t.Fatalf("entry %s has no sum field", files[2])
		}
		data[at+len(sum)] ^= 0x01 // still hex-shaped, no longer the hash
		if err := os.WriteFile(files[2], data, 0o644); err != nil {
			t.Fatal(err)
		}
		planted[files[0]], planted[files[1]], planted[files[2]] = true, true, true
	}

	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	scrub := postScrub(t, front.URL)
	if scrub.Quarantined != len(planted) {
		t.Fatalf("cluster scrub quarantined %d files, planted %d: %+v", scrub.Quarantined, len(planted), scrub)
	}
	found := map[string]bool{}
	for _, w := range scrub.Workers {
		if w.Error != "" {
			t.Fatalf("worker %s scrub failed: %s", w.URL, w.Error)
		}
		for _, q := range w.Scrub.Quarantined {
			found[q.Path] = true
			if !planted[q.Path] {
				t.Fatalf("scrub quarantined healthy file %s (%s)", q.Path, q.Reason)
			}
		}
	}
	for p := range planted {
		if !found[p] {
			t.Fatalf("planted corruption in %s survived the cluster scrub", p)
		}
	}

	// Quarantine is not data loss: the shards re-simulate the evicted
	// keys and the batch still matches, then a second scrub is clean.
	assertMatchesInProcess(t, jobs, collectSweep(t, coord, jobs, nil))
	if again := postScrub(t, front.URL); again.Quarantined != 0 {
		t.Fatalf("second scrub still found corruption: %+v", again)
	}
}

func postScrub(t *testing.T, base string) ClusterScrub {
	t.Helper()
	resp, err := http.Post(base+"/v1/scrub", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub status %d", resp.StatusCode)
	}
	var out ClusterScrub
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}
