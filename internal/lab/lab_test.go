package lab

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/mem"
	"flywheel/internal/sim"
)

const testBudget = 4_000

// testJobs builds a small batch with deliberate duplicates: three baseline
// runs appear twice each, the way the baseline column repeats across the
// paper's figures.
func testJobs() []Job {
	var jobs []Job
	benches := []string{"gzip", "vpr", "parser"}
	for _, b := range benches {
		jobs = append(jobs,
			Job{Workload: b, Arch: sim.ArchBaseline, MaxInstructions: testBudget},
			Job{Workload: b, Arch: sim.ArchFlywheel, FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: testBudget},
		)
	}
	for _, b := range benches {
		jobs = append(jobs, Job{Workload: b, Arch: sim.ArchBaseline, MaxInstructions: testBudget})
	}
	return jobs
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := testJobs()
	serial, err := Run(jobs, Options{Workers: 1, Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(jobs, Options{Workers: 8, Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("Workers:1 and Workers:8 results differ")
	}
	again, err := Run(jobs, Options{Workers: 8, Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallel, again) {
		t.Error("repeated runs differ")
	}
}

func TestResultsComeBackInJobOrder(t *testing.T) {
	jobs := testJobs()
	res, err := Run(jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(jobs) {
		t.Fatalf("len(results) = %d, want %d", len(res), len(jobs))
	}
	for i, r := range res {
		if r.Config.Workload != jobs[i].Workload || r.Config.Arch != jobs[i].Arch {
			t.Errorf("result %d is %s/%s, want %s/%s", i,
				r.Config.Workload, r.Config.Arch, jobs[i].Workload, jobs[i].Arch)
		}
	}
}

func TestCacheAccounting(t *testing.T) {
	jobs := testJobs() // 9 jobs, 6 distinct keys
	cache := NewCache()
	if _, err := Run(jobs, Options{Workers: 8, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if got, want := cache.Stats().Misses, uint64(6); got != want {
		t.Errorf("misses = %d, want %d", got, want)
	}
	if got, want := cache.Stats().Hits, uint64(3); got != want {
		t.Errorf("hits = %d, want %d", got, want)
	}
	if got, want := cache.Stats().Entries, 6; got != want {
		t.Errorf("cache len = %d, want %d", got, want)
	}
	// A second batch against the same cache is all hits.
	if _, err := Run(jobs, Options{Workers: 8, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if got, want := cache.Stats().Misses, uint64(6); got != want {
		t.Errorf("misses after rerun = %d, want %d", got, want)
	}
	if got, want := cache.Stats().Hits, uint64(12); got != want {
		t.Errorf("hits after rerun = %d, want %d", got, want)
	}
}

func TestKeyNormalizesDefaults(t *testing.T) {
	a := Job{Workload: "gzip", MaxInstructions: testBudget}
	b := Job{Workload: "gzip", Node: cacti.Node130, MaxInstructions: testBudget}
	if a.Key() != b.Key() {
		t.Errorf("zero node key %q != explicit 0.13 key %q", a.Key(), b.Key())
	}
	c := Job{Workload: "gzip", Node: cacti.Node90, MaxInstructions: testBudget}
	if a.Key() == c.Key() {
		t.Errorf("different nodes share key %q", a.Key())
	}
}

// TestKeySeparatesFrontends: the frontend axes are part of the cache
// identity — an empty selection normalizes to the gshare/none default, and
// every distinct (predictor, prefetcher) pair owns a distinct key, so a
// TAGE run can never serve from a G-share entry.
func TestKeySeparatesFrontends(t *testing.T) {
	base := Job{Workload: "gzip", MaxInstructions: testBudget}
	explicit := base
	explicit.Predictor, explicit.Prefetcher = branch.DirGShare, mem.PFNone
	if base.Key() != explicit.Key() {
		t.Errorf("default frontend key %q != explicit gshare/none key %q", base.Key(), explicit.Key())
	}
	seen := map[string]string{}
	for _, pred := range branch.Directions() {
		for _, pf := range mem.Prefetchers() {
			j := base
			j.Predictor, j.Prefetcher = pred, pf
			k := j.Key()
			if prev, dup := seen[k]; dup {
				t.Errorf("frontends %s/%s and %s share key %q", pred, pf, prev, k)
			}
			seen[k] = pred + "/" + pf
		}
	}
}

func TestErrorIsFirstFailingJob(t *testing.T) {
	jobs := []Job{
		{Workload: "gzip", MaxInstructions: testBudget},
		{Workload: "no-such-bench-b", MaxInstructions: testBudget},
		{Workload: "no-such-bench-a", MaxInstructions: testBudget},
	}
	for _, workers := range []int{1, 8} {
		_, err := Run(jobs, Options{Workers: workers})
		if err == nil {
			t.Fatalf("Workers:%d: no error for unknown benchmark", workers)
		}
		if !strings.Contains(err.Error(), "no-such-bench-b") {
			t.Errorf("Workers:%d: error %q, want the lowest-indexed failure (no-such-bench-b)", workers, err)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	jobs := testJobs()
	var mu sync.Mutex
	var seen []int
	_, err := Run(jobs, Options{
		Workers: 4,
		Progress: func(done, total int, j Job) {
			mu.Lock()
			defer mu.Unlock()
			if total != len(jobs) {
				t.Errorf("total = %d, want %d", total, len(jobs))
			}
			seen = append(seen, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("progress called %d times, want %d", len(seen), len(jobs))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress done sequence %v, want 1..%d in order", seen, len(jobs))
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	res, err := Run(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("len(results) = %d, want 0", len(res))
	}
}
