package fabric

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flywheel/internal/lab"
	"flywheel/internal/labd"
)

// ErrBusy is returned by Sweep when the pending-job cap would be
// exceeded; the HTTP layer translates it to 503 + Retry-After.
var ErrBusy = errors.New("fabric: at capacity, retry later")

// Options configures a Coordinator.
type Options struct {
	// Workers are the labd base URLs forming the cluster. Required.
	Workers []string
	// Replicas is how many ring owners each key gets — the failover and
	// hedging width. Zero defaults to 2 (clamped to the worker count).
	Replicas int
	// VNodes is the consistent-hash virtual-node count per worker; zero
	// defaults to 64.
	VNodes int
	// MaxInFlightPerShard bounds concurrent requests to one worker, across
	// every sweep the coordinator is serving. Zero defaults to 4.
	MaxInFlightPerShard int
	// MaxPending bounds the coordinator's admitted-but-unfinished job
	// count; a sweep that would exceed it (while others are in flight) is
	// rejected with 503 + Retry-After. Zero defaults to 16384.
	MaxPending int
	// RetryBackoff is the base delay before retrying a failed shard
	// request on the next replica; it doubles per attempt up to
	// RetryBackoffMax, with full jitter so concurrent retries spread out
	// instead of stampeding a recovering worker. Zero defaults to 50ms.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential growth. Zero defaults to 2s.
	RetryBackoffMax time.Duration
	// JobTimeout bounds one job request to one shard: a worker that
	// accepts a request and then never writes its line is failed over
	// instead of hanging the sweep. Zero defaults to 2m; negative
	// disables the deadline.
	JobTimeout time.Duration
	// BreakerThreshold is the consecutive transport-failure count that
	// trips a shard's circuit breaker (ejecting it from routing). Zero
	// defaults to 5.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped shard stays ejected before
	// trial traffic may re-admit it. Zero defaults to 5s.
	BreakerCooldown time.Duration
	// ProbeInterval paces StartHealthProbes' background health checks.
	// Zero defaults to 2s.
	ProbeInterval time.Duration
	// HedgeDelayMin floors the hedging trigger: a job is duplicated to the
	// next replica when its shard has not answered within
	// max(HedgeDelayMin, shard p99). Zero defaults to 250ms; negative
	// disables hedging (retry still works).
	HedgeDelayMin time.Duration
	// HTTPClient is used for all worker traffic. Nil uses a client of the
	// coordinator's own, over a clone of http.DefaultTransport that keeps
	// MaxInFlightPerShard × Replicas idle connections per worker, so
	// concurrent shard requests reuse their connections instead of
	// redialling (http.DefaultClient keeps two per host).
	HTTPClient *http.Client
	// Logf receives operational log lines; nil silences them.
	Logf func(format string, args ...any)
}

func (o *Options) fill() error {
	if len(o.Workers) == 0 {
		return fmt.Errorf("fabric: no workers")
	}
	seen := map[string]bool{}
	for _, w := range o.Workers {
		if w == "" || seen[w] {
			return fmt.Errorf("fabric: empty or duplicate worker %q", w)
		}
		seen[w] = true
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Replicas > len(o.Workers) {
		o.Replicas = len(o.Workers)
	}
	if o.MaxInFlightPerShard <= 0 {
		o.MaxInFlightPerShard = 4
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 16384
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.RetryBackoffMax <= 0 {
		o.RetryBackoffMax = 2 * time.Second
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = 2 * time.Minute
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.HedgeDelayMin == 0 {
		o.HedgeDelayMin = 250 * time.Millisecond
	}
	if o.HTTPClient == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = o.MaxInFlightPerShard * o.Replicas
		o.HTTPClient = &http.Client{Transport: t}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// latWindow is how many recent request latencies a shard keeps for its
// hedging trigger.
const latWindow = 128

// shard is the coordinator's view of one worker: its client, its global
// in-flight bound, and a window of recent request latencies for the
// hedging trigger.
type shard struct {
	url    string
	client *labd.Client
	sem    chan struct{}
	brk    breaker

	requests atomic.Uint64
	failures atomic.Uint64

	mu   sync.Mutex
	lats [latWindow]time.Duration
	n    int // filled entries
	next int // ring-buffer cursor
}

func (s *shard) observe(d time.Duration) {
	s.mu.Lock()
	s.lats[s.next] = d
	s.next = (s.next + 1) % len(s.lats)
	if s.n < len(s.lats) {
		s.n++
	}
	s.mu.Unlock()
}

// p99 returns the 99th-percentile latency of the recent window, or zero
// with no samples. It runs on every job's hedge timer, so it sorts a copy
// on the stack instead of allocating one.
func (s *shard) p99() time.Duration {
	var buf [latWindow]time.Duration
	s.mu.Lock()
	w := buf[:copy(buf[:], s.lats[:s.n])]
	s.mu.Unlock()
	if len(w) == 0 {
		return 0
	}
	slices.Sort(w)
	return w[(len(w)*99)/100]
}

// Coordinator fans sweeps across the cluster. It is safe for concurrent
// use; per-shard in-flight bounds and the pending-job cap are shared by
// all requests it is serving.
type Coordinator struct {
	opt    Options
	ring   *Ring
	order  []string
	shards map[string]*shard
	start  time.Time

	pending atomic.Int64

	requests atomic.Uint64
	jobs     atomic.Uint64
	retries  atomic.Uint64
	hedges   atomic.Uint64
	steals   atomic.Uint64
	rejected atomic.Uint64
	dropped  atomic.Uint64
	probes   atomic.Uint64
}

// New builds a coordinator over the given workers. It does not contact
// them — call CheckWorkers to gate startup on cluster health.
func New(opt Options) (*Coordinator, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		opt:    opt,
		ring:   NewRing(opt.Workers, opt.VNodes),
		order:  append([]string(nil), opt.Workers...),
		shards: make(map[string]*shard, len(opt.Workers)),
		start:  time.Now(),
	}
	for _, url := range c.order {
		cl := labd.NewClient(url)
		cl.HTTPClient = opt.HTTPClient
		// The fabric owns failure policy — retry on a replica, hedge,
		// breaker — so its shard clients must fail fast, not resume
		// against the same possibly-dead worker.
		cl.MaxResumes = -1
		c.shards[url] = &shard{
			url:    url,
			client: cl,
			sem:    make(chan struct{}, opt.MaxInFlightPerShard),
			brk:    breaker{threshold: opt.BreakerThreshold, cooldown: opt.BreakerCooldown},
		}
	}
	return c, nil
}

// Owner reports which worker a job key primarily lands on (its shard
// store's home). Exposed for tests and ops tooling.
func (c *Coordinator) Owner(key string) string { return c.ring.Owner(key) }

// Pending reports the coordinator's admitted-but-unfinished job count.
func (c *Coordinator) Pending() int64 { return c.pending.Load() }

// CheckWorkers probes every worker's /v1/health and returns an error
// naming the unreachable ones — the cluster's registration gate.
func (c *Coordinator) CheckWorkers(ctx context.Context) error {
	var bad []string
	for i, err := range c.health(ctx, c.order) {
		if err != nil {
			bad = append(bad, c.order[i])
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("fabric: %d of %d workers unhealthy: %v", len(bad), len(c.order), bad)
	}
	return nil
}

// queueSet holds each shard's FIFO of job indexes for one sweep and the
// count of each shard's runners that are not running a job. Owners pop
// from the head of their own queue. A runner whose own queue is empty
// steals from the tail of the queue with the largest surplus — the jobs
// its owner's idle runners cannot start right away, len(q) - idle — so a
// skewed grid (every job hashing to one worker) still saturates the
// cluster, while a job its owner can start at once stays on the shard
// whose cache and store hold it.
//
// Queues are filled before the runners start and never grow. An owner pop
// lowers the queue length and the idle count together, and a finish or a
// steal only lowers the surplus, so a surplus never grows: a runner that
// finds none anywhere may exit.
type queueSet struct {
	mu    sync.Mutex
	q     map[string][]int
	idle  map[string]int
	order []string
}

func newQueueSet(order []string, runners int) *queueSet {
	qs := &queueSet{
		q:     make(map[string][]int, len(order)),
		idle:  make(map[string]int, len(order)),
		order: order,
	}
	for _, n := range order {
		qs.idle[n] = runners
	}
	return qs
}

func (qs *queueSet) push(owner string, idx int) {
	qs.mu.Lock()
	qs.q[owner] = append(qs.q[owner], idx)
	qs.mu.Unlock()
}

// pop hands a runner of shard own its next job and marks the runner busy
// until its finish call.
func (qs *queueSet) pop(own string) (idx int, stolen, ok bool) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if q := qs.q[own]; len(q) > 0 {
		qs.q[own] = q[1:]
		qs.idle[own]--
		return q[0], false, true
	}
	best, bestSurplus := "", 0
	for _, n := range qs.order {
		if surplus := len(qs.q[n]) - qs.idle[n]; n != own && surplus > bestSurplus {
			best, bestSurplus = n, surplus
		}
	}
	if bestSurplus == 0 {
		return 0, false, false
	}
	q := qs.q[best]
	qs.q[best] = q[:len(q)-1]
	qs.idle[own]--
	return q[len(q)-1], true, true
}

// finish marks a runner of shard own idle again.
func (qs *queueSet) finish(own string) {
	qs.mu.Lock()
	qs.idle[own]++
	qs.mu.Unlock()
}

// Sweep runs the batch across the cluster and emits one SweepLine per job
// strictly in job order (the merged stream). emit returning an error
// aborts the sweep; jobs already started on workers complete there and
// warm their shard stores. Job-level failures travel in the lines, like
// labd's own protocol.
func (c *Coordinator) Sweep(ctx context.Context, jobs []lab.Job, emit func(labd.SweepLine) error) error {
	if !c.admit(len(jobs)) {
		return ErrBusy
	}
	c.requests.Add(1)
	c.jobs.Add(uint64(len(jobs)))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	queues := newQueueSet(c.order, c.opt.MaxInFlightPerShard)
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key()
		queues.push(c.routeOwner(keys[i]), i)
	}

	ready := make([]chan labd.SweepLine, len(jobs))
	for i := range ready {
		ready[i] = make(chan labd.SweepLine, 1)
	}

	var wg sync.WaitGroup
	for _, name := range c.order {
		sh := c.shards[name]
		for k := 0; k < c.opt.MaxInFlightPerShard; k++ {
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				for {
					i, stolen, ok := queues.pop(sh.url)
					if !ok {
						return
					}
					if stolen {
						c.steals.Add(1)
					}
					line := c.runJob(runCtx, sh, jobs[i], keys[i])
					line.Index = i
					line.Key = keys[i]
					ready[i] <- line
					c.pending.Add(-1)
					queues.finish(sh.url)
				}
			}(sh)
		}
	}
	defer wg.Wait()

	for i := range jobs {
		var line labd.SweepLine
		select {
		case line = <-ready[i]:
		case <-ctx.Done():
			c.dropped.Add(1)
			return ctx.Err()
		}
		if err := emit(line); err != nil {
			c.dropped.Add(1)
			return err
		}
	}
	return nil
}

// runJob executes one job with the full failure policy: try the executing
// shard, hedge to the next candidate when the shard's p99 says it is
// running long, and retry with backoff on transport failure. Job-level
// errors from a worker are terminal (retrying a deterministic failure
// elsewhere reproduces it). The first successful answer wins; straggling
// duplicates are canceled.
func (c *Coordinator) runJob(ctx context.Context, execer *shard, job lab.Job, key string) labd.SweepLine {
	cands := c.candidates(execer, key)
	actx, acancel := context.WithCancel(ctx)
	defer acancel() // reels in hedged stragglers

	type attempt struct {
		line labd.SweepLine
		err  error
	}
	results := make(chan attempt, len(cands))
	next, inflight := 0, 0
	launch := func() {
		sh := cands[next]
		next++
		inflight++
		go func() {
			line, err := c.oneRequest(actx, sh, job)
			results <- attempt{line, err}
		}()
	}
	launch()

	hedge := time.NewTimer(c.hedgeDelay(execer))
	defer hedge.Stop()
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return labd.SweepLine{Error: ctx.Err().Error()}
		case <-hedge.C:
			if c.opt.HedgeDelayMin > 0 && next < len(cands) {
				c.hedges.Add(1)
				launch()
			}
		case a := <-results:
			inflight--
			if a.err == nil {
				return a.line
			}
			lastErr = a.err
			if next < len(cands) {
				c.retries.Add(1)
				if !sleepCtx(ctx, c.retryDelay(next)) {
					return labd.SweepLine{Error: ctx.Err().Error()}
				}
				launch()
			} else if inflight == 0 {
				return labd.SweepLine{Error: lastErr.Error()}
			}
		}
	}
}

// candidates orders the shards a job may run on: the shard that dequeued
// it first (cache-warm for owners, already-idle for stealers), then the
// ring owners it is not, so failover lands on the replicas that may
// already hold the result on disk. Shards with an open breaker sink to
// the back as a last resort — a job is never starved even with the whole
// cluster ejected, and that desperate request doubles as the breaker's
// half-open trial.
func (c *Coordinator) candidates(execer *shard, key string) []*shard {
	cands := []*shard{execer}
	for _, url := range c.ring.Owners(key, c.opt.Replicas) {
		if url != execer.url {
			cands = append(cands, c.shards[url])
		}
	}
	var up, down []*shard
	for _, sh := range cands {
		if sh.brk.routable() {
			up = append(up, sh)
		} else {
			down = append(down, sh)
		}
	}
	return append(up, down...)
}

// routeOwner picks the shard a job queues on: its first ring owner whose
// breaker admits traffic, so an ejected worker's keys fail over to their
// replicas (whose stores they warm) instead of queueing on a corpse. With
// every owner ejected the primary keeps the job.
func (c *Coordinator) routeOwner(key string) string {
	owners := c.ring.Owners(key, len(c.order))
	for _, url := range owners {
		if c.shards[url].brk.routable() {
			return url
		}
	}
	return owners[0]
}

// retryDelay is exponential backoff with full jitter: attempt n (1-based)
// draws uniformly from [base·2ⁿ⁻¹/2, base·2ⁿ⁻¹], capped at
// RetryBackoffMax, so concurrent retries against a recovering worker
// spread out instead of arriving as a synchronized wave.
func (c *Coordinator) retryDelay(attempt int) time.Duration {
	d := c.opt.RetryBackoff
	for i := 1; i < attempt && d < c.opt.RetryBackoffMax; i++ {
		d *= 2
	}
	if d > c.opt.RetryBackoffMax {
		d = c.opt.RetryBackoffMax
	}
	half := d / 2
	return half + rand.N(half+1)
}

func (c *Coordinator) hedgeDelay(sh *shard) time.Duration {
	if d := sh.p99(); d > c.opt.HedgeDelayMin {
		return d
	}
	return c.opt.HedgeDelayMin
}

// oneRequest performs a single bounded job request against one shard.
// The error return is nil for anything terminal (including a job-level
// failure, which travels in the line) and non-nil only for retryable
// transport trouble.
func (c *Coordinator) oneRequest(ctx context.Context, sh *shard, job lab.Job) (labd.SweepLine, error) {
	select {
	case sh.sem <- struct{}{}:
	case <-ctx.Done():
		return labd.SweepLine{}, ctx.Err()
	}
	defer func() { <-sh.sem }()

	// The per-job deadline: a worker that accepts the request and then
	// never writes its line fails over instead of hanging the sweep.
	jctx := ctx
	if c.opt.JobTimeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, c.opt.JobTimeout)
		defer cancel()
	}

	start := time.Now()
	lines, err := sh.client.SweepContext(jctx, labd.SweepRequest{Jobs: []lab.Job{job}})
	sh.observe(time.Since(start))
	sh.requests.Add(1)
	if len(lines) == 1 {
		// Complete reply; a job-level error rides in the line and is
		// terminal — the simulation is deterministic, so another shard
		// would fail identically.
		sh.brk.onSuccess()
		return lines[0], nil
	}
	if err == nil {
		err = fmt.Errorf("fabric: %s returned %d lines for 1 job", sh.url, len(lines))
	}
	sh.failures.Add(1)
	if ctx.Err() == nil {
		// Shard health signal — but not when the "failure" is our own
		// cancellation (a hedged straggler reeled in, or the sweep ending).
		sh.brk.onFailure()
	}
	c.opt.Logf("fabric: %s: %v", sh.url, err)
	return labd.SweepLine{}, fmt.Errorf("fabric: %s: %w", sh.url, err)
}

// StartHealthProbes launches the background loop feeding the per-shard
// circuit breakers independently of sweep traffic: every ProbeInterval
// each shard's /v1/health is checked (an open breaker is left alone until
// its cooldown elapses, then the probe is its half-open trial). Probe
// successes rejoin ejected shards even when no sweeps are running; probe
// failures eject a silently dead worker before a sweep trips over it.
// The loop stops when ctx ends.
func (c *Coordinator) StartHealthProbes(ctx context.Context) {
	go func() {
		t := time.NewTicker(c.opt.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			c.probeOnce(ctx)
		}
	}()
}

// probeOnce checks every due shard's health and feeds the results to the
// breakers. Exposed to tests via Coordinator internals.
func (c *Coordinator) probeOnce(ctx context.Context) {
	var due []string
	for _, url := range c.order {
		if c.shards[url].brk.probeDue() {
			due = append(due, url)
		}
	}
	for i, err := range c.health(ctx, due) {
		sh := c.shards[due[i]]
		switch {
		case err == nil:
			sh.brk.onSuccess()
		case ctx.Err() == nil:
			old := sh.brk.label()
			sh.brk.onFailure()
			if now := sh.brk.label(); now == "open" && old != "open" {
				c.opt.Logf("fabric: breaker opened for %s: %v", sh.url, err)
			}
		}
	}
	c.probes.Add(1)
}

// health checks the named workers' /v1/health concurrently and returns one
// error per worker, nil for a worker that answered "ok". Each call is
// bounded by ProbeInterval, so one stalled worker cannot hold the caller.
func (c *Coordinator) health(ctx context.Context, urls []string) []error {
	errs := make([]error, len(urls))
	c.eachWorker(ctx, urls, func(ctx context.Context, i int, sh *shard) {
		h, err := sh.client.Health(ctx)
		if err == nil && h.Status != "ok" {
			err = fmt.Errorf("status %q", h.Status)
		}
		errs[i] = err
	})
	return errs
}

// eachWorker calls fn for each named worker concurrently, passing the
// worker's index in urls and a context bounded by ProbeInterval, and
// returns when every call has.
func (c *Coordinator) eachWorker(ctx context.Context, urls []string, fn func(ctx context.Context, i int, sh *shard)) {
	var wg sync.WaitGroup
	for i, url := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx, cancel := context.WithTimeout(ctx, c.opt.ProbeInterval)
			defer cancel()
			fn(wctx, i, c.shards[url])
		}()
	}
	wg.Wait()
}

// sleepCtx sleeps d or until ctx ends; it reports whether the full sleep
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// admit reserves n job slots, enforcing the pending cap. A lone oversized
// batch on an idle coordinator is admitted (MaxBatch still bounds it);
// load shedding only kicks in when other work is in flight.
func (c *Coordinator) admit(n int) bool {
	for {
		cur := c.pending.Load()
		if cur > 0 && cur+int64(n) > int64(c.opt.MaxPending) {
			c.rejected.Add(1)
			return false
		}
		if c.pending.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}
