package lab

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"flywheel/internal/cacti"
	"flywheel/internal/lab/store"
	"flywheel/internal/sample"
	"flywheel/internal/sim"
	"flywheel/internal/trace"
)

// purityJobs is a small table of exact and sampled jobs. The sampled
// schedule's gaps (about 37k instructions) exceed sample.WarmHorizon, so
// every fast-forward passes over records it does not warm — the part of a
// sampled run that once depended on whether the records were recorded,
// replayed or emulated live.
func purityJobs() []Job {
	samp := sim.Sampling{Period: 40_000, WindowInsts: 2_000, WarmupInsts: 500}
	if gap := samp.Period - samp.Normalize().Span(); gap <= sample.WarmHorizon {
		panic("purity schedule's gap does not exceed the warming horizon")
	}
	// Jobs of one workload come in pairs, so two workers start both at
	// once: one records and the other overlaps the recording.
	return []Job{
		{Workload: "vpr", Arch: sim.ArchBaseline, MaxInstructions: 130_000, Sampling: samp},
		{Workload: "vpr", Arch: sim.ArchRegAlloc, MaxInstructions: 130_000, Sampling: samp},
		{Workload: "gcc", Arch: sim.ArchBaseline, MaxInstructions: 130_000, Sampling: samp},
		{Workload: "gcc", Arch: sim.ArchFlywheel, MaxInstructions: 130_000, Sampling: samp},
		{Workload: "vpr", Arch: sim.ArchBaseline, MaxInstructions: 20_000},
		{Workload: "gcc", Arch: sim.ArchFlywheel, FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 20_000},
		{Workload: "vpr", Arch: sim.ArchRegAlloc, MaxInstructions: 20_000},
	}
}

// TestResultIsPureFunctionOfJob requires every job's Result to be
// byte-identical JSON however it was produced: on a cold, warm, disabled
// or cap-blacklisted trace cache, from warm templates another node built,
// on a timing machine reused from other jobs, through a 2-worker batch
// where a run overlaps an in-flight recording, from the result store, and
// at any worker count and job order. The reference runs each job on a
// newly built machine.
func TestResultIsPureFunctionOfJob(t *testing.T) {
	jobs := purityJobs()
	prev := sim.TraceCachePolicy()
	t.Cleanup(func() {
		sim.SetTraceCachePolicy(prev)
		sim.ResetTraceCache()
	})
	encode := func(res []sim.Result) [][]byte {
		t.Helper()
		out := make([][]byte, len(res))
		for i, r := range res {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}
	// sequential runs the table one job at a time under the given policy;
	// reset starts from an empty trace cache.
	sequential := func(p trace.Policy, reset bool) [][]byte {
		t.Helper()
		sim.SetTraceCachePolicy(p)
		if reset {
			sim.ResetTraceCache()
		}
		res, err := Run(jobs, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return encode(res)
	}

	// one runs job j alone through a fresh memo cache.
	one := func(j Job) []byte {
		t.Helper()
		res, err := NewCache().Do(j)
		if err != nil {
			t.Fatal(err)
		}
		return encode([]sim.Result{res})[0]
	}

	// The reference: a cold trace cache, and every job on a new machine.
	sim.ResetWarmTemplates()
	sim.SetTraceCachePolicy(trace.Policy{})
	sim.ResetTraceCache()
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		sim.ResetMachinePool()
		want[i] = one(j)
	}
	if s := sim.TraceCacheStats(); s.Misses == 0 || s.Hits == 0 {
		t.Fatalf("cold pass did not both record and replay: %s", s)
	}
	check := func(row string, got [][]byte) {
		t.Helper()
		for i := range jobs {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: job %d (%s) differs from the cold run:\n got  %s\n want %s", row, i, jobs[i].Key(), got[i], want[i])
			}
		}
	}

	cold := sim.TraceCacheStats()
	check("warm trace cache", sequential(trace.Policy{}, false))

	// One reused machine: with no idle machine left, job A builds one, then
	// B (another job of the same machine shape: a baseline, or a Flywheel
	// or RegAlloc core) and A again each reset and reuse it. Every pair
	// mixes workloads and exact and sampled runs.
	for i, a := range jobs {
		b := -1
		for k := 1; k < len(jobs) && b < 0; k++ {
			if c := (i + k) % len(jobs); (jobs[c].Arch == sim.ArchBaseline) == (a.Arch == sim.ArchBaseline) {
				b = c
			}
		}
		sim.ResetMachinePool()
		for _, r := range []int{i, b, i} {
			if got := one(jobs[r]); !bytes.Equal(got, want[r]) {
				t.Errorf("reused machine (%s, then %s, then %s): job %d (%s) differs from a new machine:\n got  %s\n want %s",
					a.Key(), jobs[b].Key(), a.Key(), r, jobs[r].Key(), got, want[r])
			}
		}
	}
	if s := sim.TraceCacheStats(); s.Misses != cold.Misses {
		t.Errorf("warm pass recorded again: %s", s)
	}
	check("trace cache disabled", sequential(trace.Policy{Disabled: true}, true))
	check("cap-blacklisted keys", sequential(trace.Policy{MaxBytes: 1}, true))
	if s := sim.TraceCacheStats(); s.Bypasses == 0 {
		t.Errorf("a 1-byte cap bypassed nothing: %s", s)
	}

	// Warm templates are keyed on cache geometry, which the nodes share:
	// after 90 nm runs build every template, the 130 nm jobs seed from
	// templates warmed under another node's memory latency.
	sim.ResetWarmTemplates()
	at90 := make([]Job, len(jobs))
	for i, j := range jobs {
		j.Node = cacti.Node90
		at90[i] = j
	}
	sim.SetTraceCachePolicy(trace.Policy{})
	if _, err := Run(at90, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	check("templates built at 90 nm", sequential(trace.Policy{}, false))

	// Two workers over a cold cache: each workload's first job records,
	// and a job of the same workload that starts before the recording is
	// done emulates live; which jobs do depends on scheduling.
	sim.SetTraceCachePolicy(trace.Policy{})
	sim.ResetTraceCache()
	res, err := Run(jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("cold 2-worker batch", encode(res))
	if s := sim.TraceCacheStats(); s.Misses != 2 || s.Hits+s.Bypasses != uint64(len(jobs)-2) {
		t.Errorf("2-worker batch: want one recording per workload and every other job replayed or bypassed: %s", s)
	}

	// The result store: a second cache over the same directory serves
	// every job from disk.
	dir := t.TempDir()
	for pass, row := range []string{"store fill", "store hit"} {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCacheWithStore(st)
		res, err := Run(jobs, Options{Workers: 1, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); pass == 1 && s.DiskHits != uint64(len(jobs)) {
			t.Errorf("%s: %d disk hits, want %d", row, s.DiskHits, len(jobs))
		}
		check(row, encode(res))
	}

	// Worker count and job order do not matter either.
	perm := rand.New(rand.NewSource(7)).Perm(len(jobs))
	shuffled := make([]Job, len(jobs))
	for i, p := range perm {
		shuffled[i] = jobs[p]
	}
	sim.ResetTraceCache()
	res, err = Run(shuffled, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, len(jobs))
	for i, b := range encode(res) {
		got[perm[i]] = b
	}
	check("3 workers, shuffled", got)
}
