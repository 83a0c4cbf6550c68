package labd_test

// End-to-end tests over httptest: the service must return byte-identical
// results to an in-process lab run, stream NDJSON in job order, dedupe
// against its shared store, and survive bad requests.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/labd"
	"flywheel/internal/mem"
	"flywheel/internal/sim"
)

// testJobs is a small batch with a duplicate and cross-arch variety.
func testJobs() []lab.Job {
	return []lab.Job{
		{Workload: "ijpeg", Arch: sim.ArchFlywheel, FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 2000},
		{Workload: "ijpeg", Arch: sim.ArchBaseline, MaxInstructions: 2000},
		{Workload: "gcc", Arch: sim.ArchFlywheel, FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 2000},
		{Workload: "ijpeg", Arch: sim.ArchFlywheel, FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 2000}, // dup of 0
	}
}

func startServer(t *testing.T, cache *lab.Cache) (*httptest.Server, *labd.Client) {
	t.Helper()
	srv := labd.NewServer(cache)
	srv.SetLogf(t.Logf)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, labd.NewClient(ts.URL)
}

func TestSweepMatchesInProcess(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, client := startServer(t, lab.NewCacheWithStore(st))

	jobs := testJobs()
	lines, err := client.Sweep(labd.SweepRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lab.Run(jobs, lab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(jobs) {
		t.Fatalf("got %d lines, want %d", len(lines), len(jobs))
	}
	for i, line := range lines {
		if line.Index != i {
			t.Fatalf("line %d has index %d", i, line.Index)
		}
		if line.Key != jobs[i].Key() {
			t.Fatalf("line %d key %q, want %q", i, line.Key, jobs[i].Key())
		}
		got, _ := json.Marshal(line.Result)
		exp, _ := json.Marshal(want[i])
		if string(got) != string(exp) {
			t.Fatalf("job %d: service result differs from in-process run:\n service %s\n local   %s", i, got, exp)
		}
	}
}

// TestSweepDedupesAcrossRequests: the second identical batch — as a new
// HTTP request, like a second CLI invocation — performs zero simulations.
func TestSweepDedupesAcrossRequests(t *testing.T) {
	cache := lab.NewCache()
	_, client := startServer(t, cache)

	jobs := testJobs()
	if _, err := client.Sweep(labd.SweepRequest{Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	misses := cache.Misses()
	if misses != 3 { // 3 distinct keys in testJobs
		t.Fatalf("first batch simulated %d, want 3 distinct", misses)
	}
	if _, err := client.Sweep(labd.SweepRequest{Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != misses {
		t.Fatalf("second batch re-simulated: %d total misses", cache.Misses())
	}
}

// TestSweepJobError: an unknown workload yields an error line for its
// index, complete results for the rest, and a client-side error.
func TestSweepJobError(t *testing.T) {
	_, client := startServer(t, lab.NewCache())
	jobs := []lab.Job{
		{Workload: "ijpeg", Arch: sim.ArchBaseline, MaxInstructions: 2000},
		{Workload: "no-such-workload", MaxInstructions: 2000},
	}
	lines, err := client.Sweep(labd.SweepRequest{Jobs: jobs})
	if err == nil || !strings.Contains(err.Error(), "no-such-workload") {
		t.Fatalf("err = %v, want the unknown-workload failure", err)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines despite the per-job error, want 2", len(lines))
	}
	if lines[0].Error != "" || lines[0].Result == nil {
		t.Fatalf("healthy job contaminated: %+v", lines[0])
	}
	if lines[1].Error == "" || lines[1].Result != nil {
		t.Fatalf("failing job not reported: %+v", lines[1])
	}
}

func TestSweepBadRequests(t *testing.T) {
	ts, _ := startServer(t, lab.NewCache())
	for _, body := range []string{
		``, `{}`, `{"jobs":[]}`, `not json`, `{"jobs":[{}], "bogus": 1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /v1/sweep succeeded, want method rejection")
	}
}

// TestSweepClampsWorkers: an absurd client Workers value must not spawn
// unbounded concurrency — the request still completes correctly.
func TestSweepClampsWorkers(t *testing.T) {
	_, client := startServer(t, lab.NewCache())
	jobs := testJobs()
	lines, err := client.Sweep(labd.SweepRequest{Jobs: jobs, Workers: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(jobs) {
		t.Fatalf("got %d lines, want %d", len(lines), len(jobs))
	}
}

func TestSweepRejectsOversizedBody(t *testing.T) {
	ts, _ := startServer(t, lab.NewCache())
	// One syntactically valid request whose body exceeds the 64 MiB cap.
	big := `{"jobs":[{"Workload":"` + strings.Repeat("a", 65<<20) + `"}]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, client := startServer(t, lab.NewCacheWithStore(st))

	before, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before.Cache.Misses != 0 || before.Store == nil || before.Store.Entries != 0 {
		t.Fatalf("fresh service stats: %+v", before)
	}
	if before.Version != store.Version() {
		t.Fatalf("version %q, want %q", before.Version, store.Version())
	}

	jobs := testJobs()
	if _, err := client.Sweep(labd.SweepRequest{Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	after, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Cache.Misses != 3 || after.Cache.Hits != 1 {
		t.Fatalf("post-sweep cache stats: %+v", after.Cache)
	}
	if after.Store.Entries != 3 || after.Store.Puts != 3 || after.Store.Bytes <= 0 {
		t.Fatalf("post-sweep store stats: %+v", after.Store)
	}

	// A sweep with an explicit frontend adds its results' frontend
	// observables to the stats reply's frontend block.
	fe := []lab.Job{{Workload: "gcc", Arch: sim.ArchBaseline, MaxInstructions: 20000,
		Predictor: branch.DirTAGE, Prefetcher: mem.PFDelta}}
	lines, err := client.Sweep(labd.SweepRequest{Jobs: fe})
	if err != nil {
		t.Fatal(err)
	}
	feStats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	got, want := feStats.Frontend.CondBranches-after.Frontend.CondBranches, lines[0].Result.CondBranches
	if want == 0 || got != want {
		t.Fatalf("frontend cond_branches grew by %d, want %d (and at least 1)", got, want)
	}
}

func TestFrontierMatchesInProcessExplore(t *testing.T) {
	_, client := startServer(t, lab.NewCache())
	params := map[string]string{
		"ilp": "1", "entropy": "0", "mem": "4", "code": "1",
		"passes": "1", "fe": "0,50", "n": "2000",
	}
	reply, err := client.Frontier(params)
	if err != nil {
		t.Fatal(err)
	}
	if reply.GridPoints != 2 {
		t.Fatalf("grid points = %d, want 2 (1 profile × 2 FE)", reply.GridPoints)
	}
	if len(reply.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for _, p := range reply.Frontier {
		if p.Speedup <= 0 || p.EnergyRatio <= 0 {
			t.Fatalf("implausible frontier point: %+v", p)
		}
		if p.Arch != "flywheel" {
			t.Fatalf("unexpected arch %q", p.Arch)
		}
	}
	// Identical query → identical reply, served from the warm cache.
	again, err := client.Frontier(params)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(reply)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatalf("frontier not deterministic:\n%s\n%s", a, b)
	}
}

func TestFrontierBadQuery(t *testing.T) {
	ts, _ := startServer(t, lab.NewCache())
	for _, q := range []string{
		"?node=0.42", "?seed=x", "?n=x", "?arch=vliw", "?ilp=abc",
		"?tier=bogus", "?margin=x", "?audit=x", "?auditseed=x",
	} {
		resp, err := http.Get(ts.URL + "/v1/frontier" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestNodeDefaultNormalizedOverWire: a job arriving with Node 0 memoizes
// to the same entry as Node130 — key normalization applies server-side.
func TestNodeDefaultNormalizedOverWire(t *testing.T) {
	cache := lab.NewCache()
	_, client := startServer(t, cache)
	jobs := []lab.Job{
		{Workload: "ijpeg", Arch: sim.ArchBaseline, MaxInstructions: 2000},
		{Workload: "ijpeg", Arch: sim.ArchBaseline, Node: cacti.Node130, MaxInstructions: 2000},
	}
	lines, err := client.Sweep(labd.SweepRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if lines[0].Key != lines[1].Key {
		t.Fatalf("normalized keys differ: %q vs %q", lines[0].Key, lines[1].Key)
	}
	if cache.Misses() != 1 {
		t.Fatalf("defaulted duplicate simulated twice: %d misses", cache.Misses())
	}
}

// TestFrontierTierAnalytic: a tiered query calibrates through the shared
// cache, screens most of the grid analytically, confirms the rest
// cycle-accurately, and the screened/confirmed split shows up both in the
// reply and in /v1/stats.
func TestFrontierTierAnalytic(t *testing.T) {
	cache := lab.NewCache()
	_, client := startServer(t, cache)
	params := map[string]string{
		"ilp": "1,4", "entropy": "0,1", "mem": "4", "code": "1",
		"passes": "1", "fe": "0,25,50,75,100", "be": "0,50,100", "n": "2000",
		"tier": "analytic",
	}
	reply, err := client.Frontier(params)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Tier != "analytic" {
		t.Fatalf("tier %q, want analytic", reply.Tier)
	}
	if reply.GridPoints != 60 { // 4 profiles × 5 FE × 3 BE
		t.Fatalf("grid points = %d, want 60", reply.GridPoints)
	}
	if reply.ScreenedCells+reply.ConfirmedCells != reply.GridPoints {
		t.Fatalf("screened %d + confirmed %d != grid %d",
			reply.ScreenedCells, reply.ConfirmedCells, reply.GridPoints)
	}
	if reply.ConfirmedCells == 0 || reply.ConfirmedCells >= reply.GridPoints {
		t.Fatalf("confirmed %d of %d cells; want a non-trivial strict subset",
			reply.ConfirmedCells, reply.GridPoints)
	}
	if reply.Margin <= 0 {
		t.Fatalf("margin %v not auto-derived", reply.Margin)
	}
	if reply.PredictionErr == nil || reply.PredictionErr.Cells != reply.ConfirmedCells {
		t.Fatalf("prediction error summary %+v does not cover the %d confirmed cells",
			reply.PredictionErr, reply.ConfirmedCells)
	}
	if len(reply.Frontier) == 0 {
		t.Fatal("empty tiered frontier")
	}
	for _, p := range reply.Frontier {
		if p.Speedup <= 0 || p.EnergyRatio <= 0 {
			t.Fatalf("implausible frontier point: %+v", p)
		}
	}

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.AnalyticCells != uint64(reply.ScreenedCells) || st.ConfirmedCells != uint64(reply.ConfirmedCells) {
		t.Fatalf("stats report %d screened / %d confirmed, reply said %d / %d",
			st.AnalyticCells, st.ConfirmedCells, reply.ScreenedCells, reply.ConfirmedCells)
	}

	// A repeat of the same query is deterministic and served from the warm
	// cache — no new simulations — while the tier counters keep accruing.
	misses := cache.Misses()
	again, err := client.Frontier(params)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(reply)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatalf("tiered frontier not deterministic:\n%s\n%s", a, b)
	}
	if cache.Misses() != misses {
		t.Fatalf("repeat query simulated %d new cells", cache.Misses()-misses)
	}
	st2, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.ConfirmedCells != 2*uint64(reply.ConfirmedCells) {
		t.Fatalf("confirmed counter %d after two identical queries, want %d",
			st2.ConfirmedCells, 2*reply.ConfirmedCells)
	}
}

// TestFrontierTierAuto: a grid smaller than the calibration cost resolves
// to the exact tier.
func TestFrontierTierAuto(t *testing.T) {
	_, client := startServer(t, lab.NewCache())
	reply, err := client.Frontier(map[string]string{
		"ilp": "1", "entropy": "0", "mem": "4", "code": "1",
		"passes": "1", "fe": "0,50", "n": "2000", "tier": "auto",
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Tier != "exact" {
		t.Fatalf("tiny auto grid used tier %q, want exact", reply.Tier)
	}
	if reply.ScreenedCells != 0 || reply.ConfirmedCells != 0 || reply.PredictionErr != nil {
		t.Fatalf("exact reply carries tiered fields: %+v", reply)
	}
}

// TestFrontierTierSampled: a sampled-tier query runs every cell (baselines
// included) under the sampled schedule, marks its frontier points with
// confidence intervals, counts the cells in /v1/stats, and is
// deterministic across identical queries.
func TestFrontierTierSampled(t *testing.T) {
	cache := lab.NewCache()
	_, client := startServer(t, cache)
	params := map[string]string{
		"ilp": "1", "entropy": "0", "mem": "4", "code": "1",
		"passes": "1", "fe": "0,50", "n": "60000",
		"tier": "sampled", "sample_period": "12000", "window": "1000",
		"sample_warmup": "500",
	}
	reply, err := client.Frontier(params)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Tier != "sampled" {
		t.Fatalf("tier %q, want sampled", reply.Tier)
	}
	if reply.GridPoints != 2 || reply.SampledCells != 2 {
		t.Fatalf("grid %d / sampled %d, want 2 / 2", reply.GridPoints, reply.SampledCells)
	}
	if len(reply.Frontier) == 0 {
		t.Fatal("empty sampled frontier")
	}
	for _, p := range reply.Frontier {
		if !p.Sampled {
			t.Fatalf("sampled-tier frontier point not marked sampled: %+v", p)
		}
		if p.IPCRelCI95 <= 0 || p.EnergyRelCI95 <= 0 {
			t.Fatalf("frontier point lacks confidence intervals: %+v", p)
		}
		if p.Speedup <= 0 || p.EnergyRatio <= 0 {
			t.Fatalf("implausible frontier point: %+v", p)
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SampledCells != uint64(reply.SampledCells) {
		t.Fatalf("stats sampled_cells %d, reply said %d", st.SampledCells, reply.SampledCells)
	}

	// Identical query → identical reply from the warm cache.
	misses := cache.Misses()
	again, err := client.Frontier(params)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(reply)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatalf("sampled frontier not deterministic:\n%s\n%s", a, b)
	}
	if cache.Misses() != misses {
		t.Fatalf("repeat query simulated %d new cells", cache.Misses()-misses)
	}
}

// TestFrontierThreeTier: sample_period on an analytic query inserts the
// sampled middle tier — the reply reports sampled and escalated cell
// counts plus a sampled-vs-exact error summary, and /v1/stats accrues
// sampled_cells alongside the two-tier counters.
func TestFrontierThreeTier(t *testing.T) {
	_, client := startServer(t, lab.NewCache())
	reply, err := client.Frontier(map[string]string{
		"ilp": "1,4", "entropy": "0,1", "mem": "4", "code": "1",
		"passes": "1", "fe": "0,25,50,75,100", "be": "0,50,100", "n": "60000",
		"tier": "analytic", "sample_period": "12000", "window": "1000",
		"sample_warmup": "500",
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Tier != "analytic" {
		t.Fatalf("tier %q, want analytic", reply.Tier)
	}
	if reply.SampledCells != reply.ConfirmedCells {
		t.Fatalf("sampled %d cells but confirmed %d — middle tier must cover the whole shortlist",
			reply.SampledCells, reply.ConfirmedCells)
	}
	if reply.EscalatedCells <= 0 || reply.EscalatedCells > reply.SampledCells {
		t.Fatalf("escalated %d of %d sampled cells", reply.EscalatedCells, reply.SampledCells)
	}
	if reply.SampledErr == nil || reply.SampledErr.Cells != reply.EscalatedCells {
		t.Fatalf("sampled error summary %+v does not cover the %d escalated cells",
			reply.SampledErr, reply.EscalatedCells)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SampledCells != uint64(reply.SampledCells) || st.ConfirmedCells != uint64(reply.ConfirmedCells) {
		t.Fatalf("stats %d sampled / %d confirmed, reply said %d / %d",
			st.SampledCells, st.ConfirmedCells, reply.SampledCells, reply.ConfirmedCells)
	}
}

// TestFrontierBadSamplingQuery: malformed or infeasible sampling
// parameters are usage errors, not 500s.
func TestFrontierBadSamplingQuery(t *testing.T) {
	ts, _ := startServer(t, lab.NewCache())
	for _, q := range []string{
		"?sample_period=x", "?window=x", "?sample_warmup=x", "?sample_seed=x",
		"?tier=sampled&sample_period=1000&window=2000",
	} {
		resp, err := http.Get(ts.URL + "/v1/frontier" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestFrontierRejectsConfirmAll: a margin or audit that would confirm every
// screened cell is a usage error. Before validation such a query ran every
// cell of a grid up to the 262,144-cell screen guard cycle-accurately,
// far past the 4,096-cell exact guard, and answered 200.
func TestFrontierRejectsConfirmAll(t *testing.T) {
	ts, _ := startServer(t, lab.NewCache())
	const grid = "?ilp=1&entropy=0&mem=4&code=1&passes=1&fe=0,50&n=2000&tier=analytic"
	for _, q := range []string{
		"&margin=NaN", "&margin=Inf", "&margin=-Inf", "&margin=1", "&margin=2",
		"&audit=1", "&audit=NaN",
	} {
		resp, err := http.Get(ts.URL + "/v1/frontier" + grid + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestFrontierRejectsUnknownParameter: a misspelt parameter used to be
// ignored, serving the default grid; it is now a 400 naming the parameter.
// The CLI-only flags are not parameters: a client cannot raise the grid
// guard, pick the worker count or open a store.
func TestFrontierRejectsUnknownParameter(t *testing.T) {
	ts, _ := startServer(t, lab.NewCache())
	for _, name := range []string{"entropyy", "maxpoints", "parallel", "store", "instructions", "csv"} {
		resp, err := http.Get(ts.URL + "/v1/frontier?ilp=1&" + name + "=1")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("parameter %q: status %d, want 400", name, resp.StatusCode)
		}
		if !strings.Contains(string(body), name) {
			t.Errorf("parameter %q: error %q does not name it", name, body)
		}
	}
}
