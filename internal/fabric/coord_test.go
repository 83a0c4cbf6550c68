package fabric

// Cluster end-to-end tests: the fabric must return byte-identical
// job-ordered results to an in-process lab run — including with a worker
// killed mid-sweep — steal work from skewed shards, shed load with 503,
// and aggregate stats.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/lab"
	"flywheel/internal/labd"
	"flywheel/internal/mem"
	"flywheel/internal/sim"
	"flywheel/internal/stats"
)

// testCluster is n in-process labd workers plus a coordinator over them.
type testCluster struct {
	coord   *Coordinator
	workers []*httptest.Server
	caches  []*lab.Cache
	urls    []string
	// sweepHook, when set, runs inside worker i's /v1/sweep handler before
	// the worker serves the request; returning true drops the request
	// unanswered.
	sweepHook atomic.Pointer[func(i int) bool]
}

func startCluster(t *testing.T, n int, tweak func(*Options)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		cache := lab.NewCache()
		srv := labd.NewServer(cache)
		srv.SetLogf(func(string, ...any) {}) // worker noise is expected in kill tests
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hook := tc.sweepHook.Load(); hook != nil && r.URL.Path == "/v1/sweep" && (*hook)(i) {
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		tc.workers = append(tc.workers, ts)
		tc.caches = append(tc.caches, cache)
		tc.urls = append(tc.urls, ts.URL)
	}
	opt := Options{
		Workers:       tc.urls,
		RetryBackoff:  5 * time.Millisecond,
		HedgeDelayMin: 100 * time.Millisecond,
		Logf:          t.Logf,
	}
	if tweak != nil {
		tweak(&opt)
	}
	coord, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	return tc
}

// kill makes worker i unreachable: no new connections, in-flight ones cut.
func (tc *testCluster) kill(i int) {
	tc.workers[i].Listener.Close()
	tc.workers[i].CloseClientConnections()
}

func testBatch(n int) []lab.Job {
	jobs := make([]lab.Job, 0, n)
	for i := 0; len(jobs) < n; i++ {
		jobs = append(jobs, lab.Job{
			Workload: []string{"ijpeg", "gcc"}[i%2], Arch: sim.ArchFlywheel,
			FEBoostPct: (i / 2) * 2, BEBoostPct: 50, MaxInstructions: 20000,
		})
	}
	return jobs
}

// busiest returns the index in urls of the worker that owns the most of
// jobs' keys on ring.
func busiest(ring *Ring, urls []string, jobs []lab.Job) int {
	owned := make([]int, len(urls))
	for _, j := range jobs {
		owned[slices.Index(urls, ring.Owner(j.Key()))]++
	}
	best := 0
	for i, n := range owned {
		if n > owned[best] {
			best = i
		}
	}
	return best
}

// collectSweep runs a sweep through the coordinator and returns the lines.
func collectSweep(t *testing.T, c *Coordinator, jobs []lab.Job, mid func(i int)) []labd.SweepLine {
	t.Helper()
	var lines []labd.SweepLine
	err := c.Sweep(context.Background(), jobs, func(l labd.SweepLine) error {
		lines = append(lines, l)
		if mid != nil {
			mid(len(lines))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return lines
}

func assertMatchesInProcess(t *testing.T, jobs []lab.Job, lines []labd.SweepLine) {
	t.Helper()
	want, err := lab.Run(jobs, lab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(jobs) {
		t.Fatalf("%d lines for %d jobs", len(lines), len(jobs))
	}
	for i, line := range lines {
		if line.Index != i || line.Key != jobs[i].Key() {
			t.Fatalf("line %d misordered or mislabeled: index %d key %q", i, line.Index, line.Key)
		}
		if line.Error != "" {
			t.Fatalf("job %d failed: %s", i, line.Error)
		}
		got, _ := json.Marshal(line.Result)
		exp, _ := json.Marshal(want[i])
		if string(got) != string(exp) {
			t.Fatalf("job %d: cluster result differs from in-process run:\n cluster %s\n local   %s", i, got, exp)
		}
	}
}

// TestClusterMatchesInProcess: a 3-worker fabric answers a mixed batch
// (with duplicates) byte-identically to lab.Run, through the full HTTP
// protocol via the standard labd client.
func TestClusterMatchesInProcess(t *testing.T) {
	tc := startCluster(t, 3, nil)
	ts := httptest.NewServer(tc.coord.Handler())
	t.Cleanup(ts.Close)

	jobs := testBatch(18)
	jobs = append(jobs, jobs[0], jobs[3]) // duplicates dedupe on their shard
	client := labd.NewClient(ts.URL)
	lines, err := client.Sweep(labd.SweepRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesInProcess(t, jobs, lines)

	// The batch actually spread: more than one worker simulated.
	busy := 0
	for _, cache := range tc.caches {
		if cache.Stats().Misses > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("no fan-out: %d workers busy", busy)
	}
}

// TestClusterSurvivesWorkerKill: killing one of three workers mid-sweep
// exercises the retry/failover path; the merged stream still matches the
// in-process run line for line. The victim is the worker that owns the
// most jobs, and it dies inside its own handler on its first sweep
// request, unanswered: the kill meets queued work, and the request it was
// serving must fail over, however fast the workers run. Hedging is off:
// on a loaded machine the victim may take the hedge delay to reach its
// first request, and a hedge that answers first leaves nothing to retry.
func TestClusterSurvivesWorkerKill(t *testing.T) {
	tc := startCluster(t, 3, func(o *Options) { o.HedgeDelayMin = -1 })
	jobs := testBatch(36)
	victim := busiest(tc.coord.ring, tc.urls, jobs)
	var killed atomic.Bool
	die := func(i int) bool {
		if i != victim {
			return false
		}
		if killed.CompareAndSwap(false, true) {
			tc.kill(victim)
		}
		return true
	}
	tc.sweepHook.Store(&die)
	lines := collectSweep(t, tc.coord, jobs, nil)
	assertMatchesInProcess(t, jobs, lines)
	if !killed.Load() {
		t.Fatal("kill hook never fired")
	}
	if tc.coord.snapshot().Retries == 0 {
		t.Fatal("worker death exercised no retries")
	}
}

// TestClusterAllReplicasOfDeadWorkerStillAnswer: killing a worker BEFORE
// the sweep starts (cold failure) must also produce a full, correct
// stream via failover.
func TestClusterColdDeadWorker(t *testing.T) {
	tc := startCluster(t, 3, nil)
	tc.kill(2)
	jobs := testBatch(12)
	lines := collectSweep(t, tc.coord, jobs, nil)
	assertMatchesInProcess(t, jobs, lines)
}

// TestWorkStealing: a batch whose every key hashes to one worker still
// saturates the cluster — the idle shard steals from the skewed queue.
func TestWorkStealing(t *testing.T) {
	tc := startCluster(t, 2, func(o *Options) {
		o.MaxInFlightPerShard = 1
		o.HedgeDelayMin = -1
	})
	home := tc.urls[0]
	var jobs []lab.Job
	for fe := 0; len(jobs) < 12 && fe < 200; fe++ {
		j := lab.Job{Workload: "ijpeg", Arch: sim.ArchFlywheel, FEBoostPct: fe, BEBoostPct: 50, MaxInstructions: 20000}
		if tc.coord.Owner(j.Key()) == home {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) < 12 {
		t.Fatalf("could not craft a skewed batch: %d jobs", len(jobs))
	}
	lines := collectSweep(t, tc.coord, jobs, nil)
	assertMatchesInProcess(t, jobs, lines)
	if tc.coord.snapshot().Steals == 0 {
		t.Fatal("skewed batch triggered no work stealing")
	}
	if tc.coord.shards[tc.urls[1]].snapshot().Requests == 0 {
		t.Fatal("idle worker received no stolen jobs")
	}
}

// TestSmallBatchStaysOnOwner: a skewed batch no larger than its owner's
// runners has no surplus, so nothing is stolen — every job runs on the
// shard whose cache holds it, and a repeat is all memory hits there.
func TestSmallBatchStaysOnOwner(t *testing.T) {
	tc := startCluster(t, 2, func(o *Options) { o.HedgeDelayMin = -1 })
	var jobs []lab.Job
	for fe := 0; len(jobs) < 4 && fe < 200; fe++ {
		j := lab.Job{Workload: "ijpeg", Arch: sim.ArchFlywheel, FEBoostPct: fe, BEBoostPct: 50, MaxInstructions: 20000}
		if tc.coord.Owner(j.Key()) == tc.urls[0] {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) < 4 {
		t.Fatalf("could not craft a skewed batch: %d jobs", len(jobs))
	}
	assertMatchesInProcess(t, jobs, collectSweep(t, tc.coord, jobs, nil))
	if n := tc.coord.snapshot().Steals; n != 0 {
		t.Fatalf("%d jobs stolen from an owner with idle runners", n)
	}
	if st := tc.caches[1].Stats(); st != (lab.Stats{}) {
		t.Fatalf("the idle worker's cache saw requests: %+v", st)
	}

	before := tc.caches[0].Stats()
	assertMatchesInProcess(t, jobs, collectSweep(t, tc.coord, jobs, nil))
	after := tc.caches[0].Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 4 || misses != 0 {
		t.Fatalf("repeat batch on its owner: %d memory hits, %d misses; want 4 and 0", hits, misses)
	}
}

// TestWorkerConnectionsReused: with no HTTPClient the coordinator keeps
// enough idle connections per worker for every shard request it may run at
// once, so repeated concurrent sweeps do not redial their workers.
func TestWorkerConnectionsReused(t *testing.T) {
	var urls []string
	var dials [2]atomic.Int64
	for i := range dials {
		ts := httptest.NewUnstartedServer(labd.NewServer(lab.NewCache()).Handler())
		n := &dials[i]
		ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				n.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	coord, err := New(Options{Workers: urls, HedgeDelayMin: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	jobs := testBatch(16)
	for j := range jobs {
		jobs[j].MaxInstructions = 2000
	}
	for round := 0; round < 10; round++ {
		var wg sync.WaitGroup
		for k := 0; k < 3; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := coord.Sweep(context.Background(), jobs, func(labd.SweepLine) error { return nil })
				if err != nil {
					t.Errorf("sweep: %v", err)
				}
			}()
		}
		wg.Wait()
	}
	bound := int64(coord.opt.MaxInFlightPerShard * coord.opt.Replicas)
	for i := range dials {
		if got := dials[i].Load(); got > bound {
			t.Errorf("worker %d: %d connections dialled over 30 sweeps, want at most %d", i, got, bound)
		}
	}
}

// TestShardP99 pins the hedge trigger's percentile to a sorted copy of the
// window, at every fill level and after the ring wraps, and checks that
// computing it allocates nothing.
func TestShardP99(t *testing.T) {
	want := func(s *shard) time.Duration {
		buf := append([]time.Duration(nil), s.lats[:s.n]...)
		if len(buf) == 0 {
			return 0
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
		return buf[(len(buf)*99)/100]
	}
	rng := rand.New(rand.NewPCG(1, 2))
	var s shard
	for i := 0; i <= 3*latWindow; i++ {
		if got, exp := s.p99(), want(&s); got != exp {
			t.Fatalf("after %d samples: p99 %v, want %v", i, got, exp)
		}
		s.observe(time.Duration(rng.IntN(1000))*time.Millisecond, false)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.p99() }); allocs != 0 {
		t.Fatalf("p99 allocates %v times per call", allocs)
	}
}

// TestBackpressure503: when the pending cap is hit, /v1/sweep sheds load
// with 503 + Retry-After instead of queueing unboundedly; once drained,
// the same request succeeds.
func TestBackpressure503(t *testing.T) {
	tc := startCluster(t, 1, func(o *Options) {
		o.MaxInFlightPerShard = 1
		o.MaxPending = 4
	})
	ts := httptest.NewServer(tc.coord.Handler())
	t.Cleanup(ts.Close)

	// A lone batch larger than the cap is admitted (idle coordinator).
	big := testBatch(6)
	done := make(chan error, 1)
	go func() {
		_, err := labd.NewClient(ts.URL).Sweep(labd.SweepRequest{Jobs: big})
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for tc.coord.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first sweep never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// A second request while the first is in flight is shed.
	body := `{"jobs":[{"Workload":"ijpeg","MaxInstructions":2000}]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded sweep: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if tc.coord.snapshot().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
	// The typed client tags it.
	_, err = labd.NewClient(ts.URL).Sweep(labd.SweepRequest{Jobs: big[:1]})
	if !labd.IsBackpressure(err) {
		t.Fatalf("client did not tag 503 as backpressure: %v", err)
	}

	if err := <-done; err != nil {
		t.Fatalf("admitted sweep failed: %v", err)
	}
	// Drained: the retried request now succeeds.
	if _, err := labd.NewClient(ts.URL).Sweep(labd.SweepRequest{Jobs: big[:1]}); err != nil {
		t.Fatalf("post-drain retry failed: %v", err)
	}
}

// TestHedging: a worker that sits on a request past the hedge trigger gets
// speculatively duplicated to the replica; the fast answer wins.
func TestHedging(t *testing.T) {
	slowCache := lab.NewCache()
	slowSrv := labd.NewServer(slowCache)
	slowSrv.SetLogf(func(string, ...any) {})
	inner := slowSrv.Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/sweep") {
			time.Sleep(2 * time.Second) // stall every sweep
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	fastCache := lab.NewCache()
	fastSrv := labd.NewServer(fastCache)
	fast := httptest.NewServer(fastSrv.Handler())
	t.Cleanup(fast.Close)

	coord, err := New(Options{
		Workers:       []string{slow.URL, fast.URL},
		HedgeDelayMin: 50 * time.Millisecond,
		RetryBackoff:  5 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Craft jobs homed on the slow worker so the hedge must rescue them.
	var jobs []lab.Job
	for fe := 0; len(jobs) < 4 && fe < 200; fe++ {
		j := lab.Job{Workload: "gcc", FEBoostPct: fe, MaxInstructions: 2000}
		if coord.Owner(j.Key()) == slow.URL {
			jobs = append(jobs, j)
		}
	}
	start := time.Now()
	lines := collectSweep(t, coord, jobs, nil)
	assertMatchesInProcess(t, jobs, lines)
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("hedging did not rescue the sweep: took %v", elapsed)
	}
	if coord.snapshot().Hedges == 0 {
		t.Fatal("no hedged requests fired")
	}
	if fastCache.Stats().Misses == 0 {
		t.Fatal("replica did no rescue work")
	}
}

// TestClusterStatsAndHealth: /v1/stats sums worker cache tiers and
// /v1/health degrades when a worker dies.
func TestClusterStatsAndHealth(t *testing.T) {
	tc := startCluster(t, 2, nil)
	ts := httptest.NewServer(tc.coord.Handler())
	t.Cleanup(ts.Close)

	jobs := testBatch(8)
	// One baseline at three nodes on two workers: at least two of them
	// land on one worker, which prices the second from the first's timing.
	for _, node := range []cacti.Node{cacti.Node130, cacti.Node90, cacti.Node60} {
		jobs = append(jobs, lab.Job{Workload: "gcc", Arch: sim.ArchBaseline, Node: node, MaxInstructions: 20000})
	}
	// And one job with an explicit frontend, whose observables the cluster
	// sum must carry.
	jobs = append(jobs, lab.Job{Workload: "ijpeg", Arch: sim.ArchBaseline, MaxInstructions: 20000,
		Predictor: branch.DirTAGE, Prefetcher: mem.PFDelta})
	if _, err := labd.NewClient(ts.URL).Sweep(labd.SweepRequest{Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	var cluster ClusterStats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&cluster); err != nil {
		t.Fatal(err)
	}
	var wantMisses, wantRepriced uint64
	for _, cache := range tc.caches {
		wantMisses += cache.Stats().Misses
		wantRepriced += cache.Stats().Repriced
	}
	if cluster.Cache.Misses != wantMisses {
		t.Fatalf("aggregated misses %d, want %d", cluster.Cache.Misses, wantMisses)
	}
	if cluster.Cache.Repriced != wantRepriced || wantRepriced == 0 {
		t.Fatalf("aggregated repriced %d, want %d (and at least 1)", cluster.Cache.Repriced, wantRepriced)
	}
	if cluster.Coord.Jobs != uint64(len(jobs)) || len(cluster.Workers) != 2 {
		t.Fatalf("coord stats: %+v", cluster.Coord)
	}
	var wantFE labd.FrontendStats
	for _, ws := range cluster.Workers {
		wantFE = stats.Sum(wantFE, ws.Stats.Frontend)
	}
	if cluster.Frontend != wantFE || wantFE.Mispredicts == 0 {
		t.Fatalf("cluster frontend sum %+v, want %+v (and mispredicts > 0)", cluster.Frontend, wantFE)
	}

	var health ClusterHealth
	resp2, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("healthy cluster reports %q", health.Status)
	}
	tc.kill(1)
	resp3, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	health = ClusterHealth{}
	if err := json.NewDecoder(resp3.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Workers[tc.urls[1]] {
		t.Fatalf("dead worker not detected: %+v", health)
	}
}

// TestHealthAndStatsBoundStalledWorker: a worker that accepts connections
// and never answers must not hold the coordinator's /v1/health or
// /v1/stats. Each per-worker call gives up after workerCallTimeout, so
// both answer within about two timeouts and name the stalled worker. The
// two probes run at once, so the test waits out the timeout once.
func TestHealthAndStatsBoundStalledWorker(t *testing.T) {
	good := httptest.NewServer(labd.NewServer(lab.NewCache()).Handler())
	t.Cleanup(good.Close)
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(stall.Close)
	const probe = workerCallTimeout
	coord, err := New(Options{Workers: []string{good.URL, stall.URL}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)

	get := func(path string, v any) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*probe)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
		if err != nil {
			return err
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		if d := time.Since(start); d > 2*probe {
			return fmt.Errorf("GET %s took %v with one stalled worker, want at most %v", path, d, 2*probe)
		}
		return nil
	}

	var health ClusterHealth
	var stats ClusterStats
	var healthErr, statsErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); healthErr = get("/v1/health", &health) }()
	go func() { defer wg.Done(); statsErr = get("/v1/stats", &stats) }()
	wg.Wait()
	if healthErr != nil || statsErr != nil {
		t.Fatalf("health: %v; stats: %v", healthErr, statsErr)
	}
	if health.Status != "degraded" || health.Workers[stall.URL] || !health.Workers[good.URL] {
		t.Fatalf("stalled worker not reported: %+v", health)
	}
	if len(stats.Workers) != 2 {
		t.Fatalf("stats list %d workers, want 2", len(stats.Workers))
	}
	for _, ws := range stats.Workers {
		switch {
		case ws.URL == stall.URL && ws.Error == "":
			t.Errorf("stalled worker has no stats error: %+v", ws)
		case ws.URL == good.URL && ws.Stats == nil:
			t.Errorf("healthy worker lost its stats: %+v", ws)
		}
	}
}

// TestFrontierForwarding: the coordinator proxies Pareto queries to a
// worker; the reply matches querying that worker directly and repeat
// queries stay deterministic.
func TestFrontierForwarding(t *testing.T) {
	tc := startCluster(t, 2, nil)
	ts := httptest.NewServer(tc.coord.Handler())
	t.Cleanup(ts.Close)

	params := map[string]string{
		"ilp": "1", "entropy": "0", "mem": "4", "code": "1",
		"passes": "1", "fe": "0,50", "n": "2000",
	}
	reply, err := labd.NewClient(ts.URL).Frontier(params)
	if err != nil {
		t.Fatal(err)
	}
	if reply.GridPoints != 2 || len(reply.Frontier) == 0 {
		t.Fatalf("frontier reply: %+v", reply)
	}
	again, err := labd.NewClient(ts.URL).Frontier(params)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(reply)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatalf("frontier not deterministic through the fabric:\n%s\n%s", a, b)
	}
	// Bad queries pass the worker's 400 through.
	resp, err := http.Get(ts.URL + "/v1/frontier?seed=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query: status %d, want 400", resp.StatusCode)
	}

	// A predictor × prefetcher grid on the periodic-branch profile: TAGE
	// beats G-share there, so a TAGE point is on the frontier. The
	// coordinator forwards the worker's reply byte for byte.
	feQuery := "/v1/frontier?ilp=4&entropy=0&period=16&stride=1&mem=8&code=1&passes=2&seed=7" +
		"&arch=baseline&fe=0&be=0&predictor=gshare,tage&prefetcher=none,delta&n=400000"
	direct := getBody(t, tc.urls[0]+feQuery)
	if fwd := getBody(t, ts.URL+feQuery); string(fwd) != string(direct) {
		t.Fatalf("forwarded frontier differs from the worker's:\n%s\n%s", fwd, direct)
	}
	var feReply labd.FrontierReply
	if err := json.Unmarshal(direct, &feReply); err != nil {
		t.Fatal(err)
	}
	if feReply.GridPoints != 4 {
		t.Fatalf("frontend grid points = %d, want 4", feReply.GridPoints)
	}
	if !slices.ContainsFunc(feReply.Frontier, func(p labd.FrontierPoint) bool { return p.Predictor == branch.DirTAGE }) {
		t.Fatalf("no TAGE point on the frontend frontier: %+v", feReply.Frontier)
	}

	// A tiered query forwards the same way, and the worker's
	// screened/confirmed counters surface in the cluster stats.
	tiered, err := labd.NewClient(ts.URL).Frontier(map[string]string{
		"ilp": "1,4", "entropy": "0,1", "mem": "4", "code": "1",
		"passes": "1", "fe": "0,25,50,75,100", "be": "0,50,100", "n": "2000",
		"tier": "analytic",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tiered.Tier != "analytic" || tiered.ConfirmedCells == 0 {
		t.Fatalf("tiered reply through the fabric: %+v", tiered)
	}
	var stats ClusterStats
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.AnalyticCells != uint64(tiered.ScreenedCells) || stats.ConfirmedCells != uint64(tiered.ConfirmedCells) {
		t.Fatalf("cluster stats report %d screened / %d confirmed, reply said %d / %d",
			stats.AnalyticCells, stats.ConfirmedCells, tiered.ScreenedCells, tiered.ConfirmedCells)
	}
}

// getBody GETs url and returns the body of its 200 reply.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestCheckWorkers: the registration gate names unreachable workers.
func TestCheckWorkers(t *testing.T) {
	tc := startCluster(t, 2, nil)
	if err := tc.coord.CheckWorkers(context.Background()); err != nil {
		t.Fatalf("healthy cluster failed registration: %v", err)
	}
	tc.kill(0)
	err := tc.coord.CheckWorkers(context.Background())
	if err == nil || !strings.Contains(err.Error(), tc.urls[0]) {
		t.Fatalf("dead worker not named: %v", err)
	}
}

// TestSweepBadRequests mirrors labd's request validation at the
// coordinator.
func TestCoordinatorBadRequests(t *testing.T) {
	tc := startCluster(t, 1, nil)
	ts := httptest.NewServer(tc.coord.Handler())
	t.Cleanup(ts.Close)
	for _, body := range []string{``, `{}`, `{"jobs":[]}`, `not json`, `{"jobs":[{}], "bogus": 1}`} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("no workers accepted")
	}
	if _, err := New(Options{Workers: []string{"http://a", "http://a"}}); err == nil {
		t.Error("duplicate workers accepted")
	}
	if _, err := New(Options{Workers: []string{"http://a", ""}}); err == nil {
		t.Error("empty worker accepted")
	}
}
