package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flywheel/internal/cacti"
	"flywheel/internal/chaos"
	"flywheel/internal/explore"
	"flywheel/internal/fabric"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/labd"
	"flywheel/internal/sim"
	"flywheel/internal/workload"
)

// Cluster-skew traffic shape.
const (
	clusterBudget  = 20_000 // instructions per job
	universeSize   = 256    // distinct configurations clients ask for
	clusterBatch   = 4      // jobs per sweep request
	clusterClients = 2      // closed-loop client goroutines
	clusterShards  = 2      // labd workers, one store shard each
	zipfS          = 1.2    // popularity skew over the universe
	frontierFrac   = 0.10   // share of requests that are /v1/frontier queries
	roundRequests  = 500    // requests per round; every round starts cold
	universeSeed   = 1      // fixes the universe and its popularity order
)

// Faults on the coordinator→worker hop. Stream cuts hit only the first
// worker and delays only the second, so every job keeps one replica that
// answers: retries and hedges run, and no request fails. Delays are rare
// enough (well under 1% of requests) that p99_ms measures the cluster's
// own slow requests, not the injected sleeps.
var (
	cutPlan   = chaos.Plan{Truncate: 0.02, PathSubstr: "/v1/sweep"}
	delayPlan = chaos.Plan{Delay: 0.004, MaxDelay: 100 * time.Millisecond, PathSubstr: "/v1/sweep"}
)

// frontierQueries are the /v1/frontier parameter sets clients send: small
// synthetic grids at the cluster budget.
var frontierQueries = []map[string]string{
	{"ilp": "2", "entropy": "0", "fe": "0,100", "be": "50", "n": strconv.Itoa(clusterBudget)},
	{"ilp": "4", "entropy": "1", "fe": "0,100", "be": "50", "n": strconv.Itoa(clusterBudget)},
}

// clusterSkew is an in-process fabric coordinator over clusterShards labd
// workers, each with its own store shard on loopback, driven by a closed
// loop of clusterClients labd.Client goroutines. The traffic is Zipf over
// a fixed universe of paper-workload configurations, with batch sweeps and
// a share of frontier queries. Every round starts from the same store —
// seeded with every other configuration by popularity — and cold memory
// caches, so requests split across memory hits, disk hits and simulation,
// and misses write to the store.
type clusterSkew struct {
	seed     uint64
	dir      string
	configs  []lab.Job             // every configuration the universe is drawn from
	universe []lab.Job             // by popularity rank
	seeded   map[string]sim.Result // store contents at the start of a round

	oracleLines map[string][]byte    // key → in-process lab.Run result JSON
	oracleFront []labd.FrontierReply // per frontierQueries entry
	ipcErr      float64              // the sampled tier on its validation set
	ciCover     float64
	next        *clusterRound // prepared round, not yet run
	rounds      int
}

type clusterRequest struct {
	jobs     []lab.Job
	frontier int // index into frontierQueries when jobs is nil
}

func newClusterSkew(seed uint64) (*clusterSkew, error) {
	dir, err := filepath.Abs(filepath.Join(outRoot, fmt.Sprintf("cluster-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	c := &clusterSkew{seed: seed, dir: dir}

	// The universe: every paper workload × {baseline, regalloc, flywheel
	// across the FE/BE boost grid}, shuffled and cut to universeSize; the
	// shuffled order is the popularity rank. The universe is the same for
	// every seed, so every seed serves the same mix of configurations; the
	// seed draws the rounds' traffic (roundTraffic).
	var all []lab.Job
	for _, name := range workload.Names() {
		all = append(all, lab.Job{Workload: name, Arch: sim.ArchBaseline, Node: cacti.Node130, MaxInstructions: clusterBudget})
		for _, arch := range []sim.Arch{sim.ArchRegAlloc, sim.ArchFlywheel} {
			for _, fe := range []int{0, 25, 50, 75, 100} {
				for _, be := range []int{0, 50, 100} {
					all = append(all, lab.Job{Workload: name, Arch: arch, Node: cacti.Node130, FEBoostPct: fe, BEBoostPct: be, MaxInstructions: clusterBudget})
				}
			}
		}
	}
	c.configs = append([]lab.Job(nil), all...)
	u := rand.New(rand.NewPCG(universeSeed, 0xc1a5))
	u.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	c.universe = all[:universeSize]
	return c, nil
}

// roundTraffic draws round k's request sequence and fault-plan seeds from
// the workload seed. Every round gets a fresh draw of the same traffic, so
// a run's timings average over several draws.
func (c *clusterSkew) roundTraffic(k int) (reqs []clusterRequest, cutSeed, delaySeed uint64) {
	r := rand.New(rand.NewPCG(c.seed, 0xc1a5+uint64(k)))
	zipf := rand.NewZipf(r, zipfS, 1, universeSize-1)
	for len(reqs) < roundRequests {
		if r.Float64() < frontierFrac {
			reqs = append(reqs, clusterRequest{frontier: r.IntN(len(frontierQueries))})
			continue
		}
		jobs := make([]lab.Job, clusterBatch)
		for i := range jobs {
			jobs[i] = c.universe[zipf.Uint64()]
		}
		reqs = append(reqs, clusterRequest{jobs: jobs})
	}
	return reqs, r.Uint64(), r.Uint64()
}

func (c *clusterSkew) fingerprint(f map[string]string) {
	f["instructions"] = strconv.Itoa(clusterBudget)
	f["cluster"] = fmt.Sprintf("universe=%d batch=%d clients=%d shards=%d zipf=%g frontier=%g round=%d",
		universeSize, clusterBatch, clusterClients, clusterShards, zipfS, frontierFrac, roundRequests)
	validationFingerprint(f)
}

func (c *clusterSkew) streams() []stream {
	var s []stream
	for _, name := range workload.Names() {
		s = append(s, stream{name, clusterBudget})
	}
	return s
}

// setup records every paper workload's trace at the cluster budget,
// registers the frontier queries' synthetic workloads, computes the
// results the store is seeded with (every other configuration by
// popularity), and starts the first round's cluster over a seeded store.
func (c *clusterSkew) setup() error {
	for _, name := range workload.Names() {
		if _, err := sim.Run(sim.RunConfig{Workload: name, Arch: sim.ArchBaseline, Node: cacti.Node130, MaxInstructions: clusterBudget}); err != nil {
			return err
		}
	}
	for _, q := range frontierQueries {
		space, err := frontierSpace(q)
		if err != nil {
			return err
		}
		if _, err := explore.Explore(space, explore.Options{Workers: clusterShards, Cache: lab.NewCache()}); err != nil {
			return err
		}
	}
	var jobs []lab.Job
	for rank := 1; rank < len(c.universe); rank += 2 {
		jobs = append(jobs, c.universe[rank])
	}
	res, err := lab.Run(jobs, lab.Options{Workers: clusterShards, Cache: lab.NewCache()})
	if err != nil {
		return err
	}
	c.seeded = map[string]sim.Result{}
	for i, j := range jobs {
		c.seeded[j.Key()] = res[i]
	}
	c.next, err = c.startRound()
	return err
}

// frontierSpace builds the grid a /v1/frontier query with params q asks
// for, the way labd parses it.
func frontierSpace(q map[string]string) (explore.Space, error) {
	a := explore.DefaultAxes()
	a.ILP, a.Entropy, a.FE, a.BE = q["ilp"], q["entropy"], q["fe"], q["be"]
	n, err := strconv.ParseUint(q["n"], 10, 64)
	if err != nil {
		return explore.Space{}, err
	}
	a.Instructions = n
	return a.Space()
}

// oracle computes every configuration's result and every frontier reply
// in process, without the service layers.
func (c *clusterSkew) oracle() error {
	res, err := lab.Run(c.configs, lab.Options{Workers: clusterShards, Cache: lab.NewCache()})
	if err != nil {
		return err
	}
	c.oracleLines = map[string][]byte{}
	for i, j := range c.configs {
		b, err := json.Marshal(res[i])
		if err != nil {
			return err
		}
		c.oracleLines[j.Key()] = b
	}
	// The workload runs no sampled jobs.
	if c.ipcErr, c.ciCover, err = childValidate(); err != nil {
		return err
	}
	c.oracleFront = nil
	for _, q := range frontierQueries {
		space, err := frontierSpace(q)
		if err != nil {
			return err
		}
		rep, err := explore.Explore(space, explore.Options{Workers: clusterShards, Cache: lab.NewCache()})
		if err != nil {
			return err
		}
		want := labd.FrontierReply{GridPoints: len(rep.Points), Tier: "exact"}
		for _, p := range rep.Frontier() {
			want.Frontier = append(want.Frontier, labd.FrontierPoint{
				Profile: p.Profile.String(), Arch: p.Arch.String(),
				FEBoostPct: p.FEBoost, BEBoostPct: p.BEBoost,
				Speedup: p.Speedup, EnergyRatio: p.EnergyRatio,
			})
		}
		c.oracleFront = append(c.oracleFront, want)
	}
	return nil
}

// clusterRound is one cold cluster: workers over freshly seeded store
// shards, a coordinator with faults on its worker hop, and the
// coordinator's own HTTP front.
type clusterRound struct {
	dir      string
	requests []clusterRequest
	workers  []*httptest.Server
	caches   []*lab.Cache
	hop      *http.Transport // coordinator→worker connections
	front    *httptest.Server
}

// workerHost names worker i on the coordinator's side. The names are
// stable across rounds and processes (the transport resolves them to the
// real loopback listeners), so the hash ring, and with it which shard owns
// which key, is the same in every round.
func workerHost(i int) string { return fmt.Sprintf("worker-%d.bench", i) }

func (c *clusterSkew) startRound() (*clusterRound, error) {
	c.rounds++
	rd := &clusterRound{dir: filepath.Join(c.dir, fmt.Sprintf("round-%d", c.rounds))}
	cut, delay := cutPlan, delayPlan
	rd.requests, cut.Seed, delay.Seed = c.roundTraffic(c.rounds)
	addrs := map[string]string{}
	var urls []string
	stores := map[string]*store.Store{}
	for i := 0; i < clusterShards; i++ {
		st, err := store.Open(store.ShardDir(rd.dir, i))
		if err != nil {
			rd.close()
			return nil, err
		}
		cache := lab.NewCacheWithStore(st)
		srv := labd.NewServer(cache)
		srv.SetLogf(nil)
		ts := httptest.NewServer(srv.Handler())
		rd.workers = append(rd.workers, ts)
		rd.caches = append(rd.caches, cache)
		host := workerHost(i)
		addrs[host+":80"] = ts.Listener.Addr().String()
		url := "http://" + host
		urls = append(urls, url)
		stores[url] = st
	}
	rd.hop = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := addrs[addr]; ok {
				addr = real
			}
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 16,
	}
	transport := hostRouter{
		workerHost(0): chaos.New(cut, rd.hop),
		workerHost(1): chaos.New(delay, rd.hop),
	}
	coord, err := fabric.New(fabric.Options{
		Workers:       urls,
		HTTPClient:    &http.Client{Transport: transport},
		RetryBackoff:  5 * time.Millisecond,
		HedgeDelayMin: 25 * time.Millisecond,
	})
	if err != nil {
		rd.close()
		return nil, err
	}
	for key, res := range c.seeded {
		if err := stores[coord.Owner(key)].Put(key, res); err != nil {
			rd.close()
			return nil, err
		}
	}
	rd.front = httptest.NewServer(coord.Handler())
	return rd, nil
}

func (rd *clusterRound) close() {
	if rd.front != nil {
		rd.front.Close()
	}
	for _, w := range rd.workers {
		w.Close()
	}
	if rd.hop != nil {
		rd.hop.CloseIdleConnections()
	}
	os.RemoveAll(rd.dir)
}

// hostRouter sends each worker host's requests through its own fault
// plan.
type hostRouter map[string]http.RoundTripper

func (h hostRouter) RoundTrip(req *http.Request) (*http.Response, error) {
	rt, ok := h[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no route to %s", req.URL.Host)
	}
	return rt.RoundTrip(req)
}

func (c *clusterSkew) close() {
	if c.next != nil {
		c.next.close()
		c.next = nil
	}
	os.RemoveAll(c.dir)
}

// clusterTally accumulates one run's rounds.
type clusterTally struct {
	log      roundLog
	tiers    lab.Stats
	coord    fabric.CoordStats
	requests int
}

func (c *clusterSkew) measure(deadline time.Time, tr *tracer) (outcome, error) {
	var out outcome
	var t clusterTally
	before := sim.TraceCacheStats()
	var reqID atomic.Int64
	err := units(deadline, &out, func(int) error {
		rd := c.next
		c.next = nil
		if rd == nil {
			var err error
			if rd, err = c.startRound(); err != nil {
				return err
			}
		}
		defer rd.close()
		return c.runRound(rd, tr, &reqID, &out, &t)
	})
	if err != nil {
		return out, err
	}
	after := sim.TraceCacheStats()
	if t.tiers.Hits == 0 || t.tiers.DiskHits == 0 || t.tiers.Misses == 0 {
		out.problems = append(out.problems, fmt.Sprintf("coverage: cache tiers not all hit (memory %d, disk %d, sim %d)", t.tiers.Hits, t.tiers.DiskHits, t.tiers.Misses))
	}
	if t.coord.Retries+t.coord.Hedges == 0 {
		out.problems = append(out.problems, "coverage: no retry or hedge ran")
	}
	reqs := float64(t.requests)
	t.log.report(&out)
	out.metrics = append(out.metrics,
		metric{"ipc_err_pct", c.ipcErr, "%"},
		metric{"ci_coverage", c.ciCover, "fraction"},
	)
	out.layers = append(out.layers, tierRatios(t.tiers)...)
	out.layers = append(out.layers,
		metric{"trace.replay_ratio", ratio(float64(after.Hits-before.Hits), float64(t.tiers.Misses)), "fraction"},
		metric{"fabric.retries_per_req", float64(t.coord.Retries) / reqs, "count"},
		metric{"fabric.hedges_per_req", float64(t.coord.Hedges) / reqs, "count"},
		metric{"fabric.steals_per_req", float64(t.coord.Steals) / reqs, "count"},
		metric{"fabric.shed_per_req", float64(t.coord.Rejected) / reqs, "count"},
	)
	return out, nil
}

// runRound drives one cold cluster with the closed loop: each client sends
// its next request only after the previous reply, taking requests from the
// round's sequence in order. Replies are checked after the round, outside
// the request and round timings.
func (c *clusterSkew) runRound(rd *clusterRound, tr *tracer, reqID *atomic.Int64, out *outcome, t *clusterTally) error {
	client := labd.NewClient(rd.front.URL)
	var next atomic.Int64
	replies := make([]clusterReply, len(rd.requests))
	lats := make([]float64, len(rd.requests))
	var wg sync.WaitGroup
	round := tr.start("cluster-skew.round", span{}, 0)
	t.log.sample(3)
	start := time.Now()
	for k := 0; k < clusterClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(rd.requests) {
					return
				}
				sp := tr.start("labd.Client", round, reqID.Add(1))
				t0 := time.Now()
				replies[i] = c.call(client, rd.requests[i])
				lats[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				sp.finish()
			}
		}()
	}
	wg.Wait()
	t.log.add(time.Since(start).Seconds(), lats)
	round.finish()
	for i, r := range replies {
		out.attempted++
		if problem := c.check(rd.requests[i], r); problem != "" {
			out.failed++
			out.problems = append(out.problems, problem)
		}
	}
	t.requests += len(rd.requests)
	for _, cache := range rd.caches {
		s := cache.Stats()
		t.tiers.Hits += s.Hits
		t.tiers.DiskHits += s.DiskHits
		t.tiers.Misses += s.Misses
	}
	cs, err := coordStats(rd.front.URL)
	if err != nil {
		return err
	}
	t.coord.Retries += cs.Retries
	t.coord.Hedges += cs.Hedges
	t.coord.Steals += cs.Steals
	t.coord.Rejected += cs.Rejected
	return nil
}

// clusterReply is what one request returned.
type clusterReply struct {
	lines    []labd.SweepLine
	frontier labd.FrontierReply
	err      error
}

// call sends one request.
func (c *clusterSkew) call(client *labd.Client, req clusterRequest) clusterReply {
	var r clusterReply
	if req.jobs == nil {
		r.frontier, r.err = client.Frontier(frontierQueries[req.frontier])
	} else {
		r.lines, r.err = client.Sweep(labd.SweepRequest{Jobs: req.jobs})
	}
	return r
}

// check compares a reply with the oracle; it returns a description of what
// was wrong, or "".
func (c *clusterSkew) check(req clusterRequest, r clusterReply) string {
	if req.jobs == nil {
		if r.err != nil {
			return "frontier: " + r.err.Error()
		}
		return frontierMismatch(r.frontier, c.oracleFront[req.frontier])
	}
	if r.err != nil {
		return "sweep: " + r.err.Error()
	}
	if len(r.lines) != len(req.jobs) {
		return fmt.Sprintf("sweep: %d lines for %d jobs", len(r.lines), len(req.jobs))
	}
	for i, line := range r.lines {
		key := req.jobs[i].Key()
		if line.Index != i || line.Key != key || line.Error != "" {
			return fmt.Sprintf("sweep line %d: index %d key %q error %q", i, line.Index, line.Key, line.Error)
		}
		got, err := json.Marshal(line.Result)
		if err != nil || !bytes.Equal(got, c.oracleLines[key]) {
			return fmt.Sprintf("sweep line %d (%s): result differs from in-process lab.Run", i, key)
		}
	}
	return ""
}

// frontierMismatch compares a frontier reply with the in-process oracle on
// the fields that identify the frontier.
func frontierMismatch(got, want labd.FrontierReply) string {
	if got.GridPoints != want.GridPoints || got.Tier != want.Tier || len(got.Frontier) != len(want.Frontier) {
		return fmt.Sprintf("frontier: %d points, tier %q, %d on frontier; want %d, %q, %d",
			got.GridPoints, got.Tier, len(got.Frontier), want.GridPoints, want.Tier, len(want.Frontier))
	}
	for i, p := range got.Frontier {
		w := want.Frontier[i]
		if p.Profile != w.Profile || p.Arch != w.Arch || p.FEBoostPct != w.FEBoostPct || p.BEBoostPct != w.BEBoostPct ||
			p.Speedup != w.Speedup || p.EnergyRatio != w.EnergyRatio {
			return fmt.Sprintf("frontier point %d differs from in-process explore", i)
		}
	}
	return ""
}

// coordStats reads the coordinator's own counters from its /v1/stats.
func coordStats(url string) (fabric.CoordStats, error) {
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return fabric.CoordStats{}, err
	}
	defer resp.Body.Close()
	var cs fabric.ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return fabric.CoordStats{}, fmt.Errorf("coordinator stats: %w", err)
	}
	return cs.Coord, nil
}
