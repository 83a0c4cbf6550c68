// Package lab orchestrates batches of simulations. The paper's evaluation
// is a large cross-product — benchmarks × architectures × boost settings ×
// technology nodes — of mutually independent runs, so the lab fans a job
// list across a worker pool sized to the machine and memoizes results by a
// canonical configuration key: the many experiments that share a
// configuration (e.g. the baseline column repeated across Figures 11-14)
// simulate exactly once, and runs that differ only in node or in a boost
// their machine absorbs share one timing simulation where their clock
// plans scale alike (see Cache). Results always come back in job order,
// independent of completion order and worker count, so a sweep renders
// byte-identically whether it ran on one core or sixty-four.
package lab

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/lab/store"
	"flywheel/internal/mem"
	"flywheel/internal/sim"
)

// Job is one simulation in a batch: the full identity of a run. Two jobs
// with equal fields are the same experiment and share one cached result.
type Job struct {
	Workload string
	Arch     sim.Arch
	// Node is the technology point; zero means 0.13 µm, like sim.Run.
	Node cacti.Node
	// FEBoostPct / BEBoostPct are the Flywheel clock-ratio knobs (§5).
	FEBoostPct int
	BEBoostPct int
	// MaxInstructions bounds the measured dynamic instruction count;
	// 0 runs to completion.
	MaxInstructions uint64

	// Predictor and Prefetcher select the frontend microarchitecture; empty
	// means the defaults ("gshare", "none"), exactly like sim.RunConfig.
	Predictor  string
	Prefetcher string

	// Figure 2 baseline variants.
	ExtraFrontEndStages   int
	PipelinedWakeupSelect bool

	// Sampling selects sampled execution (zero value: exact). Sampled
	// results are estimates, so they memoize under distinct keys — an
	// exact run never answers for a sampled one or vice versa.
	Sampling sim.Sampling
}

func (j Job) normalize() Job {
	if j.Node == 0 {
		j.Node = cacti.Node130
	}
	if j.Predictor == "" {
		j.Predictor = branch.DirGShare
	}
	if j.Prefetcher == "" {
		j.Prefetcher = mem.PFNone
	}
	j.Sampling = j.Sampling.Normalize()
	return j
}

// Key is the canonical cache identity of the job. Fields that default are
// normalized first, so a job written with Node left zero and one written
// with Node130 memoize to the same entry. The workload name — the only
// variable-length, user-controlled field — is Go-quoted, so registered
// names containing the field separators ('|', '='), quotes, or newlines
// cannot forge another job's key: strconv.Quote is injective and its
// output delimits the name unambiguously. The encoding is stable across
// processes; the on-disk store addresses entries by it.
func (j Job) Key() string {
	j = j.normalize()
	k := fmt.Sprintf("wl=%s|arch=%d|node=%s|fe=%d|be=%d|n=%d|fes=%d|pws=%t|pred=%s|pf=%s",
		strconv.Quote(j.Workload), j.Arch,
		strconv.FormatFloat(float64(j.Node), 'g', -1, 64),
		j.FEBoostPct, j.BEBoostPct, j.MaxInstructions,
		j.ExtraFrontEndStages, j.PipelinedWakeupSelect,
		strconv.Quote(j.Predictor), strconv.Quote(j.Prefetcher))
	// Exact jobs keep their historical key byte-for-byte (the on-disk
	// store addresses entries by it); sampled jobs append the normalized
	// schedule. Normalize collapses disabled configs to the zero value, so
	// a stray WindowInsts on an exact job cannot fork its key, and an
	// enabled schedule always has all four fields non-zero — no ambiguity
	// with the unsuffixed form.
	if s := j.Sampling; s.Enabled() {
		k += fmt.Sprintf("|samp=%d,%d,%d,%d", s.Period, s.WindowInsts, s.WarmupInsts, s.Seed)
	}
	return k
}

// Config converts the job to the simulator's run configuration.
func (j Job) Config() sim.RunConfig {
	j = j.normalize()
	return sim.RunConfig{
		Workload:              j.Workload,
		Arch:                  j.Arch,
		Node:                  j.Node,
		FEBoostPct:            j.FEBoostPct,
		BEBoostPct:            j.BEBoostPct,
		MaxInstructions:       j.MaxInstructions,
		Predictor:             j.Predictor,
		Prefetcher:            j.Prefetcher,
		ExtraFrontEndStages:   j.ExtraFrontEndStages,
		PipelinedWakeupSelect: j.PipelinedWakeupSelect,
		Sampling:              j.Sampling,
	}
}

// Cache memoizes simulation results by Job.Key. It is safe for concurrent
// use and deduplicates in-flight work: when two workers ask for the same
// key at once, one simulates and the other waits for its result. A cache
// opened over a store (NewCacheWithStore) adds a persistent second tier:
// memory misses consult the disk store before simulating, and fresh
// results are written through, so the memoization survives process death.
//
// Beside its results the cache keeps the timing records of the runs it
// simulated (sim.Timing), and every job, exact or sampled, gets its result
// by pricing one. Jobs that differ only in technology node or in a clock
// boost often share one cycle-level timing — the node changes the power
// model and the picosecond length of the clock plan, the boosts change
// periods the plan already carries (or, for the back-end boost of a
// machine without the Execution Cache, nothing at all), and whenever two
// plans are equal up to a common scale the cores tick alike. Such a job is
// priced from the shared record instead of simulated again. The records
// live exactly as long as the cache.
//
// Failed runs are never cached beyond their own flight: the waiters that
// piled onto an in-flight run all receive its error, but the entry is
// evicted before they are released, so the next request retries — a
// transient failure (say, a workload registered later) does not poison the
// key for the process lifetime. A panicking run is converted into an error
// result with the same eviction semantics; waiters can never deadlock on
// an abandoned entry. Results and timing records follow these rules
// through one implementation (flights).
type Cache struct {
	mu       sync.Mutex
	entries  flights[string, sim.Result]
	timings  flights[sim.TimingID, sim.Timing]
	misses   uint64
	diskHits uint64

	disk *store.Store
	// run, when set, simulates every job whole and bypasses the timing
	// records; tests substitute it to inject failures and panics, or set
	// it to sim.Run for an unshared reference. simulate produces a job's
	// timing record.
	run      func(sim.RunConfig) (sim.Result, error)
	simulate func(sim.RunConfig) (sim.Timing, error)
}

// NewCache returns an empty in-memory run cache.
func NewCache() *Cache {
	c := &Cache{simulate: sim.Simulate}
	c.entries = newFlights[string, sim.Result](&c.mu)
	c.timings = newFlights[sim.TimingID, sim.Timing](&c.mu)
	return c
}

// NewCacheWithStore returns a run cache layered over a persistent store:
// memory over disk over simulation, with in-flight deduplication intact
// across all three tiers.
func NewCacheWithStore(s *store.Store) *Cache {
	c := NewCache()
	c.disk = s
	return c
}

// Store returns the cache's persistent tier, or nil for a purely
// in-memory cache.
func (c *Cache) Store() *store.Store { return c.disk }

// Do returns the memoized result for j, computing it on first request.
// Concurrent calls with the same key share one computation.
func (c *Cache) Do(j Job) (sim.Result, error) {
	return c.DoContext(context.Background(), j)
}

// DoContext is Do with cancellation. A waiter whose context ends returns
// ctx.Err() immediately; the in-flight computation it was waiting on is
// unaffected and still lands in the cache for everyone else. A caller that
// becomes the filler checks its context once more immediately before the
// simulation starts: a request canceled by then skips the run entirely and
// the entry is evicted, so cancellation never wastes simulation work and
// never caches a hole. Work that has already started is carried to
// completion and cached — a canceled client's finished jobs still benefit
// the next request.
//
// Cancellation cannot poison other requests: when a filler aborts with its
// context error, waiters with still-live contexts observe the eviction and
// retry, taking over the computation themselves.
func (c *Cache) DoContext(ctx context.Context, j Job) (sim.Result, error) {
	key := j.Key()
	return c.entries.do(ctx, key, func() (sim.Result, error) { return c.fill(ctx, key, j) })
}

func isContextErr(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// fill computes a result: disk tier first, then a shared timing record or
// a simulation. Fresh results are written through to the disk tier.
func (c *Cache) fill(ctx context.Context, key string, j Job) (sim.Result, error) {
	if c.disk != nil {
		if res, ok := c.disk.Get(key); ok {
			c.mu.Lock()
			c.diskHits++
			c.mu.Unlock()
			return res, nil
		}
	}
	res, err := c.compute(ctx, key, j.Config())
	if err == nil && c.disk != nil {
		// A write-through failure (disk full, permissions) degrades the
		// store to a smaller cache; the computed result is still good.
		_ = c.disk.Put(key, res)
	}
	return res, err
}

// compute prices cfg from its timing record, simulating the record first
// unless another job that shares it already has.
func (c *Cache) compute(ctx context.Context, key string, cfg sim.RunConfig) (sim.Result, error) {
	if c.run != nil {
		if err := c.start(ctx, key); err != nil {
			return sim.Result{}, err
		}
		return c.run(cfg)
	}
	id, err := sim.TimingOf(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	t, err := c.timings.do(ctx, id, func() (sim.Timing, error) {
		if err := c.start(ctx, key); err != nil {
			return sim.Timing{}, err
		}
		return c.simulate(cfg)
	})
	if err != nil {
		return sim.Result{}, err
	}
	return t.Price(cfg)
}

// start is the last cancellation point before a simulation: beyond it the
// simulation runs to completion and is cached even if the requester has
// gone away. Checking before the miss counter keeps Misses an exact count
// of simulations actually started.
func (c *Cache) start(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("lab: run %s: %w", key, err)
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil
}

// flights is a single-flight memo table under its owner's lock. The
// first request for a key runs the fill; concurrent requests join its
// flight and wait. A fill that fails, panics (the panic becomes an error)
// or is canceled before it starts is evicted before its waiters are
// released, and waiters whose own context is still live retry a canceled
// flight instead of surfacing a stranger's cancellation.
type flights[K comparable, V any] struct {
	mu       *sync.Mutex
	m        map[K]*flight[V]
	joins    uint64 // requests served by another request's flight
	inflight int
}

type flight[V any] struct {
	done chan struct{} // closed once val/err are filled
	val  V
	err  error
}

func newFlights[K comparable, V any](mu *sync.Mutex) flights[K, V] {
	return flights[K, V]{mu: mu, m: map[K]*flight[V]{}}
}

// do returns the value memoized under key, running fill on first request.
func (t *flights[K, V]) do(ctx context.Context, key K, fill func() (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		t.mu.Lock()
		if f, ok := t.m[key]; ok {
			t.joins++
			t.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return zero, ctx.Err()
			}
			if isContextErr(f.err) && ctx.Err() == nil {
				continue // the filler was canceled before its run began
			}
			return f.val, f.err
		}
		f := &flight[V]{done: make(chan struct{})}
		t.m[key] = f
		t.inflight++
		t.mu.Unlock()

		t.run(f, key, fill)
		return f.val, f.err
	}
}

// run fills f and releases its waiters. f.done is closed via defer no
// matter how the fill ends; error flights are evicted first.
func (t *flights[K, V]) run(f *flight[V], key K, fill func() (V, error)) {
	defer func() {
		if p := recover(); p != nil {
			f.err = fmt.Errorf("lab: run %v panicked: %v", key, p)
		}
		t.mu.Lock()
		t.inflight--
		if f.err != nil {
			delete(t.m, key)
		}
		t.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fill()
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts requests served from memory, including waits on
	// in-flight runs. DiskHits counts memory misses served by the
	// persistent store. Misses counts simulations started. Repriced
	// counts memory misses that took their timing record from another
	// request's simulation (of a job differing only in node or in a boost
	// its machine's clock plan absorbs) instead of simulating, including
	// waits on in-flight records.
	// For a job list on a fresh in-memory cache,
	// Hits+DiskHits+Misses+Repriced == len(jobs) and
	// DiskHits+Misses+Repriced == the number of distinct keys, regardless
	// of worker count.
	Hits     uint64
	DiskHits uint64
	Misses   uint64
	Repriced uint64
	// InFlight is the number of computations currently running; Entries
	// the number of memoized configurations.
	InFlight int
	Entries  int
}

// Stats returns a consistent snapshot of all counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:     c.entries.joins,
		DiskHits: c.diskHits,
		Misses:   c.misses,
		Repriced: c.timings.joins,
		InFlight: c.entries.inflight,
		Entries:  len(c.entries.m),
	}
}

// StatsLine renders the cache and store counters as one fixed-shape line,
// shared by the CLIs' -storestats flags and greppable by CI's warm-store
// check (the second pass over a warm store must report "0 sim runs").
func (c *Cache) StatsLine() string {
	s := c.Stats()
	lookups := s.DiskHits + s.Misses + s.Repriced
	diskPct := 0.0
	if lookups > 0 {
		diskPct = 100 * float64(s.DiskHits) / float64(lookups)
	}
	line := fmt.Sprintf("store: %d requests, %d memory hits, %d disk hits, %d sim runs (%.1f%% disk), %d repriced",
		s.Hits+lookups, s.Hits, s.DiskHits, s.Misses, diskPct, s.Repriced)
	if c.disk != nil {
		entries, bytes := c.disk.Size()
		line += fmt.Sprintf("; %d entries, %d bytes on disk", entries, bytes)
	}
	return line
}

// Options configures a batch run.
type Options struct {
	// Workers sets the worker-pool size; zero or negative uses
	// runtime.GOMAXPROCS(0).
	Workers int
	// Cache memoizes runs across calls. Nil uses a fresh private cache, so
	// duplicates within the job list still simulate once.
	Cache *Cache
	// Progress, when non-nil, is called once per completed job with the
	// number finished so far (1..total) and the job. Calls are serialized
	// but arrive in completion order, not job order.
	Progress func(done, total int, j Job)
}

// Run executes the jobs on a worker pool and returns their results in job
// order. Identical jobs — within the list or against a shared cache from
// earlier calls — simulate exactly once, and jobs that share a timing
// record simulate it once (see Cache). The workers take the first job of
// each distinct timing before any job that repeats one (see
// dispatchOrder). If any job fails, Run finishes the batch and returns the
// error of the lowest-indexed failing job, so the error too is
// deterministic under concurrency.
func Run(jobs []Job, opt Options) ([]sim.Result, error) {
	results := make([]sim.Result, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	cache := opt.Cache
	if cache == nil {
		cache = NewCache()
	}

	errs := make([]error, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = cache.Do(jobs[i])
				if opt.Progress != nil {
					progressMu.Lock()
					done++
					opt.Progress(done, len(jobs), jobs[i])
					progressMu.Unlock()
				}
			}
		}()
	}
	for _, i := range dispatchOrder(jobs) {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// dispatchOrder lists the job indices with the first job of each distinct
// timing identity ahead of every job that repeats one, each group in job
// order. A repeat is only pricing once its record exists; dispatched next
// to the job it shares a record with, it would hold a worker waiting on
// that simulation while jobs with timings of their own queue behind it.
// Jobs whose identity cannot be formed go first: they fail fast.
func dispatchOrder(jobs []Job) []int {
	seen := make(map[sim.TimingID]bool, len(jobs))
	order := make([]int, 0, len(jobs))
	var repeats []int
	for i, j := range jobs {
		id, err := sim.TimingOf(j.Config())
		if err == nil && seen[id] {
			repeats = append(repeats, i)
			continue
		}
		if err == nil {
			seen[id] = true
		}
		order = append(order, i)
	}
	return append(order, repeats...)
}
