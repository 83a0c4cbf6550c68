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
	// RetryBackoff bounds the delay before a failed shard request moves
	// to the next replica: each retry waits a uniform draw over
	// [RetryBackoff/2, RetryBackoff], so concurrent failures spread out
	// instead of stampeding the replica. Zero defaults to 50ms.
	RetryBackoff time.Duration
	// JobTimeout bounds one job request to one shard: a worker that
	// accepts a request and then never writes its line is failed over
	// instead of hanging the sweep. Zero defaults to 2m; negative
	// disables the deadline.
	JobTimeout time.Duration
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
	if o.JobTimeout == 0 {
		o.JobTimeout = 2 * time.Minute
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
// in-flight bound, its request counters, and a window of recent request
// latencies for the hedging trigger.
type shard struct {
	url    string
	client *labd.Client
	sem    chan struct{}

	mu    sync.Mutex
	stats WorkerStats // URL, Requests and Failures
	lats  [latWindow]time.Duration
	n     int // filled entries
	next  int // ring-buffer cursor
}

// observe records one request that took d and failed or not.
func (s *shard) observe(d time.Duration, failed bool) {
	s.mu.Lock()
	s.lats[s.next] = d
	s.next = (s.next + 1) % len(s.lats)
	if s.n < len(s.lats) {
		s.n++
	}
	s.stats.Requests++
	if failed {
		s.stats.Failures++
	}
	s.mu.Unlock()
}

// snapshot returns the shard's counters and current latency p99.
func (s *shard) snapshot() WorkerStats {
	s.mu.Lock()
	ws := s.stats
	s.mu.Unlock()
	ws.P99Ms = float64(s.p99()) / float64(time.Millisecond)
	return ws
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

	// pending is read on every admission, so it stays atomic; the other
	// counters live in stats.
	pending atomic.Int64

	mu    sync.Mutex
	stats CoordStats // every counter but Pending
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
		// The fabric owns failure policy — retry on a replica, hedge —
		// so its shard clients must fail fast, not resume against the
		// same possibly-dead worker.
		cl.MaxResumes = -1
		c.shards[url] = &shard{
			url:    url,
			client: cl,
			sem:    make(chan struct{}, opt.MaxInFlightPerShard),
			stats:  WorkerStats{URL: url},
		}
	}
	return c, nil
}

// Owner reports which worker a job key primarily lands on (its shard
// store's home). Exposed for tests and ops tooling.
func (c *Coordinator) Owner(key string) string { return c.ring.Owner(key) }

// Pending reports the coordinator's admitted-but-unfinished job count.
func (c *Coordinator) Pending() int64 { return c.pending.Load() }

// count applies f to the coordinator's counters under their lock.
func (c *Coordinator) count(f func(*CoordStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// snapshot returns the coordinator's counters, Pending included.
func (c *Coordinator) snapshot() CoordStats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	s.Pending = c.pending.Load()
	return s
}

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
	c.count(func(s *CoordStats) {
		s.Requests++
		s.Jobs += uint64(len(jobs))
	})
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	queues := newQueueSet(c.order, c.opt.MaxInFlightPerShard)
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key()
		queues.push(c.ring.Owner(keys[i]), i)
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
						c.count(func(s *CoordStats) { s.Steals++ })
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
			c.count(func(s *CoordStats) { s.DroppedReplies++ })
			return ctx.Err()
		}
		if err := emit(line); err != nil {
			c.count(func(s *CoordStats) { s.DroppedReplies++ })
			return err
		}
	}
	return nil
}

// runJob executes one job with the fabric's failure policy: try the
// executing shard, hedge to the next candidate when the shard's p99 says
// it is running long, and on transport failure move to the next candidate
// after a jittered delay. Job-level errors from a worker are terminal
// (retrying a deterministic failure elsewhere reproduces it). The first
// successful answer wins; straggling duplicates are canceled.
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
	// retry fires once a failure's delay has elapsed; it is nil while no
	// retry is pending. Waiting in the select rather than in a sleep lets
	// an in-flight hedge's answer win meanwhile.
	var retry <-chan time.Time
	for {
		select {
		case <-ctx.Done():
			return labd.SweepLine{Error: ctx.Err().Error()}
		case <-hedge.C:
			// A pending retry already claims the next candidate: one
			// failure must not cost both a retry and a hedge.
			if c.opt.HedgeDelayMin > 0 && retry == nil && next < len(cands) {
				c.count(func(s *CoordStats) { s.Hedges++ })
				launch()
			}
		case <-retry:
			retry = nil
			c.count(func(s *CoordStats) { s.Retries++ })
			launch()
		case a := <-results:
			inflight--
			if a.err == nil {
				return a.line
			}
			if retry == nil && next < len(cands) {
				retry = time.After(c.retryDelay())
			} else if retry == nil && inflight == 0 {
				return labd.SweepLine{Error: a.err.Error()}
			}
		}
	}
}

// candidates orders the shards a job may run on: the shard that dequeued
// it first (cache-warm for owners, already-idle for stealers), then the
// ring owners it is not, so failover lands on the replicas that may
// already hold the result on disk.
func (c *Coordinator) candidates(execer *shard, key string) []*shard {
	cands := []*shard{execer}
	for _, url := range c.ring.Owners(key, c.opt.Replicas) {
		if url != execer.url {
			cands = append(cands, c.shards[url])
		}
	}
	return cands
}

// retryDelay draws a failover delay uniformly from [RetryBackoff/2,
// RetryBackoff], so concurrent retries spread out over the replica
// instead of arriving as a synchronized wave. The delay does not grow per
// attempt: each attempt of a job goes to a different shard.
func (c *Coordinator) retryDelay() time.Duration {
	half := c.opt.RetryBackoff / 2
	return half + rand.N(c.opt.RetryBackoff-half+1)
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
	sh.observe(time.Since(start), len(lines) != 1)
	if len(lines) == 1 {
		// Complete reply; a job-level error rides in the line and is
		// terminal — the simulation is deterministic, so another shard
		// would fail identically.
		return lines[0], nil
	}
	if err == nil {
		err = fmt.Errorf("fabric: %s returned %d lines for 1 job", sh.url, len(lines))
	}
	c.opt.Logf("fabric: %s: %v", sh.url, err)
	return labd.SweepLine{}, fmt.Errorf("fabric: %s: %w", sh.url, err)
}

// workerCallTimeout bounds each per-worker health or stats call, so a
// worker that accepts a connection and never answers cannot hold the
// caller.
const workerCallTimeout = 2 * time.Second

// health checks the named workers' /v1/health concurrently and returns one
// error per worker, nil for a worker that answered "ok".
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
// worker's index in urls and a context bounded by workerCallTimeout, and
// returns when every call has.
func (c *Coordinator) eachWorker(ctx context.Context, urls []string, fn func(ctx context.Context, i int, sh *shard)) {
	var wg sync.WaitGroup
	for i, url := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx, cancel := context.WithTimeout(ctx, workerCallTimeout)
			defer cancel()
			fn(wctx, i, c.shards[url])
		}()
	}
	wg.Wait()
}

// admit reserves n job slots, enforcing the pending cap. A lone oversized
// batch on an idle coordinator is admitted (MaxBatch still bounds it);
// load shedding only kicks in when other work is in flight.
func (c *Coordinator) admit(n int) bool {
	for {
		cur := c.pending.Load()
		if cur > 0 && cur+int64(n) > int64(c.opt.MaxPending) {
			c.count(func(s *CoordStats) { s.Rejected++ })
			return false
		}
		if c.pending.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}
