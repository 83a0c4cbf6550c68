// Package labd implements the lab batch service: a long-running HTTP/JSON
// front for the two-tier run cache. Where each CLI invocation re-simulates
// from a cold process, a resident labd keeps the memory tier warm and the
// disk tier open, so the paper's whole cross-product of runs is computed
// exactly once across every client, forever.
//
// Protocol (all under /v1):
//
//	POST /v1/sweep     body {"jobs":[Job...], "workers":N}
//	                   → NDJSON, one line per job IN JOB ORDER:
//	                     {"index":i,"key":"...","result":{...}} or
//	                     {"index":i,"key":"...","error":"..."}
//	                   Lines stream as results complete; duplicate jobs —
//	                   within the batch, across batches, across clients —
//	                   simulate once.
//	GET  /v1/frontier  explore-style Pareto query; the parameters are the
//	                   explore CLI flags explore.Query binds, '_' for '-'
//	                   (ilp, entropy, fp, mem, stride, rr, code, period,
//	                   chase, stridebytes, seed, passes, arch, predictor,
//	                   prefetcher, fe, be, node, n, tier, margin, audit,
//	                   auditseed, sample_period, window, sample_warmup,
//	                   sample_seed); any other is a 400. tier=analytic
//	                   screens the grid with a calibrated closed-form
//	                   model and simulates only cells near the predicted
//	                   frontier; tier=auto picks by grid size; tier=sampled
//	                   runs every cell with sampled execution (periodic
//	                   detailed windows over fast-forwarded warming, with
//	                   confidence intervals); a sampling parameter on any
//	                   other tier is a 400. The calibration runs flow
//	                   through the shared cache, so they persist in the
//	                   store like any sweep job.
//	GET  /v1/stats     cache hit/miss/in-flight counters, store size,
//	                   uptime and the store version stamp.
//	GET  /v1/health    liveness probe: {"status":"ok",...}. Coordinators
//	                   (internal/fabric) use it to register workers.
//	POST /v1/scrub     audit the disk tier: verify every store entry,
//	                   quarantine corrupt ones, return the report. Safe
//	                   while serving.
//
// Request lifecycle: sweep jobs start in job order, each gated on the
// request context — a client that disconnects mid-stream stops consuming
// the service the moment its running jobs finish; unstarted jobs never
// claim a semaphore slot or a simulation. Undeliverable replies are
// counted (stats dropped_replies) instead of being silently discarded.
package labd

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flywheel/internal/analytic"
	"flywheel/internal/explore"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/sim"
	"flywheel/internal/trace"
)

// MaxBatch bounds one sweep request; bigger job lists should be split by
// the client (the server's cache makes the split free).
const MaxBatch = 65536

// SweepRequest is the /v1/sweep body.
type SweepRequest struct {
	Jobs []lab.Job `json:"jobs"`
	// Workers caps this request's simulation concurrency; zero or
	// negative uses GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// SweepLine is one NDJSON response line: the i-th job's result or error.
type SweepLine struct {
	Index  int         `json:"index"`
	Key    string      `json:"key"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// StoreStats reports the persistent tier in /v1/stats.
type StoreStats struct {
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	store.Stats
}

// StatsReply is the /v1/stats body.
type StatsReply struct {
	Cache lab.Stats   `json:"cache"`
	Store *StoreStats `json:"store,omitempty"`
	// TraceCache reports the record-once/replay-many dynamic-trace cache
	// the service shares across every request.
	TraceCache    trace.Stats `json:"trace_cache"`
	Version       string      `json:"version"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	Counters
}

// Counters are the worker's own service counters, each declared only
// here: StatsReply embeds the record, and a fabric coordinator sums its
// workers' records field by field (stats.Sum) into the cluster's.
type Counters struct {
	// DroppedReplies counts responses the service could not deliver — the
	// client vanished mid-reply or mid-NDJSON-stream. Before this counter
	// existed those failures were silently discarded.
	DroppedReplies uint64 `json:"dropped_replies"`
	// CanceledJobs counts sweep jobs skipped because their request's
	// context ended before they started simulating.
	CanceledJobs uint64 `json:"canceled_jobs"`
	// AnalyticCells and ConfirmedCells account the two-tier frontier
	// queries served so far: grid cells screened by the analytic model
	// versus cells confirmed by the cycle-accurate simulator. Their ratio
	// is the service's observed screening leverage.
	AnalyticCells  uint64 `json:"analytic_cells"`
	ConfirmedCells uint64 `json:"confirmed_cells"`
	// SampledCells counts grid cells evaluated with sampled execution by
	// tier=sampled queries.
	SampledCells uint64 `json:"sampled_cells"`
	// Scrubs counts /v1/scrub passes served; QuarantinedFiles totals the
	// corrupt files those passes moved aside.
	Scrubs           uint64 `json:"scrubs"`
	QuarantinedFiles uint64 `json:"quarantined_files"`
	// Frontend aggregates the frontend observables of every sweep result
	// this worker delivered (cache and store hits included — the counters
	// describe delivered results, not simulation effort).
	Frontend FrontendStats `json:"frontend"`
}

// FrontendStats totals the branch-predictor and prefetcher activity across
// delivered sweep results.
type FrontendStats struct {
	CondBranches   uint64 `json:"cond_branches"`
	Mispredicts    uint64 `json:"mispredicts"`
	PrefetchIssued uint64 `json:"prefetch_issued"`
	PrefetchUseful uint64 `json:"prefetch_useful"`
	PrefetchLate   uint64 `json:"prefetch_late"`
}

// ScrubReply is the /v1/scrub body: one worker's store-integrity report.
// Dir is empty when the worker runs memory-only (nothing to scrub).
type ScrubReply struct {
	store.ScrubReport
	Dir     string `json:"dir,omitempty"`
	Version string `json:"version"`
}

// HealthReply is the /v1/health body. Coordinators poll it to register and
// monitor workers.
type HealthReply struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// FrontierPoint is one Pareto-optimal configuration in /v1/frontier.
type FrontierPoint struct {
	Profile     string  `json:"profile"`
	Arch        string  `json:"arch"`
	Node        float64 `json:"node"`
	Predictor   string  `json:"predictor"`
	Prefetcher  string  `json:"prefetcher"`
	FEBoostPct  int     `json:"fe_pct"`
	BEBoostPct  int     `json:"be_pct"`
	Speedup     float64 `json:"speedup"`
	EnergyRatio float64 `json:"energy_ratio"`
	ECResidency float64 `json:"ec_residency"`
	IPC         float64 `json:"ipc"`
	TimePS      int64   `json:"time_ps"`
	BranchAcc   float64 `json:"branch_acc"`
	L2HitRate   float64 `json:"l2_hit"`
	PfAccuracy  float64 `json:"pf_acc"`
	PfCoverage  float64 `json:"pf_cov"`
	// Sampled marks points whose metrics are sampled-execution estimates;
	// the CI fields carry their 95% relative confidence intervals.
	Sampled       bool    `json:"sampled,omitempty"`
	IPCRelCI95    float64 `json:"ipc_rel_ci95,omitempty"`
	EnergyRelCI95 float64 `json:"energy_rel_ci95,omitempty"`
}

// FrontierReply is the /v1/frontier body. Tiered queries (tier=analytic,
// or tier=auto resolving to analytic) additionally report how the grid
// split between the model and the simulator and how well the model
// predicted the cells that were confirmed.
type FrontierReply struct {
	GridPoints int             `json:"grid_points"`
	Tier       string          `json:"tier"`
	Frontier   []FrontierPoint `json:"frontier"`

	// ScreenedCells + ConfirmedCells == GridPoints for tiered queries;
	// both are zero for exact ones.
	ScreenedCells  int `json:"screened_cells,omitempty"`
	ConfirmedCells int `json:"confirmed_cells,omitempty"`
	// Margin is the frontier slack the screen actually used (relevant when
	// the server derived it from the model's training error).
	Margin float64 `json:"margin,omitempty"`
	// PredictionErr compares the model against the simulator on the
	// confirmed cells — measured, not in-sample, error.
	PredictionErr *analytic.Summary `json:"prediction_err,omitempty"`

	// SampledCells counts the cells a tier=sampled query evaluated with
	// sampled execution: the whole grid.
	SampledCells int `json:"sampled_cells,omitempty"`
}

// Server fronts one shared cache. Every request — sweep or frontier, any
// client — funnels through the same memory tier and (if present) the same
// disk store, so results are computed once service-wide.
type Server struct {
	cache *lab.Cache
	start time.Time
	// sem bounds simulation concurrency service-wide at GOMAXPROCS, so
	// neither one huge batch nor many concurrent requests can oversubscribe
	// the machine.
	sem chan struct{}

	logf func(format string, args ...any)

	mu       sync.Mutex // guards counters
	counters Counters

	// scrubMu serializes scrub passes: concurrent scrubs are safe but
	// would double-count each other's quarantine races.
	scrubMu sync.Mutex
}

// NewServer wraps the cache in a service.
func NewServer(cache *lab.Cache) *Server {
	return &Server{
		cache: cache,
		start: time.Now(),
		sem:   make(chan struct{}, runtime.GOMAXPROCS(0)),
		logf:  log.Printf,
	}
}

// count applies f to the service counters under their lock.
func (s *Server) count(f func(*Counters)) {
	s.mu.Lock()
	f(&s.counters)
	s.mu.Unlock()
}

// SetLogf redirects the service's operational log lines (dropped replies,
// aborted streams); the default is log.Printf. A nil f silences them.
func (s *Server) SetLogf(f func(format string, args ...any)) {
	if f == nil {
		f = func(string, ...any) {}
	}
	s.logf = f
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/frontier", s.handleFrontier)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	mux.HandleFunc("POST /v1/scrub", s.handleScrub)
	return mux
}

// Scrub audits the worker's disk tier — every store entry — quarantining
// anything corrupt so the next request for that key re-simulates instead
// of trusting bad bytes. Safe (and intended) to run while the worker
// serves traffic.
func (s *Server) Scrub() (ScrubReply, error) {
	reply := ScrubReply{Version: store.Version()}
	reply.Quarantined = []store.Quarantined{}
	st := s.cache.Store()
	if st == nil {
		return reply, nil // memory-only worker: nothing on disk to audit
	}
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	rep, err := st.Scrub()
	if rep != nil {
		reply.ScrubReport = *rep
		if reply.Quarantined == nil {
			reply.Quarantined = []store.Quarantined{}
		}
	}
	reply.Dir = st.Dir()
	if err != nil {
		return reply, err
	}
	s.count(func(c *Counters) {
		c.Scrubs++
		c.QuarantinedFiles += uint64(len(rep.Quarantined))
	})
	if n := len(rep.Quarantined); n > 0 {
		s.logf("labd: scrub quarantined %d corrupt files under %s", n, st.QuarantineDir())
	}
	return reply, nil
}

func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	reply, err := s.Scrub()
	if err != nil {
		http.Error(w, "labd: scrub: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, r, reply)
}

// maxSweepBody caps the request body so a pathological payload (few jobs,
// enormous strings) cannot buffer unbounded memory before MaxBatch applies.
const maxSweepBody = 64 << 20

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "labd: bad sweep request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Jobs) == 0 {
		http.Error(w, "labd: empty job list", http.StatusBadRequest)
		return
	}
	if len(req.Jobs) > MaxBatch {
		http.Error(w, fmt.Sprintf("labd: %d jobs exceeds the %d-job batch limit", len(req.Jobs), MaxBatch), http.StatusBadRequest)
		return
	}
	// The client's Workers value can only narrow the per-request
	// concurrency; the server-wide semaphore (GOMAXPROCS) is the hard cap
	// shared by all requests.
	workers := req.Workers
	if workers <= 0 || workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(req.Jobs) {
		workers = len(req.Jobs)
	}

	// A pool of workers takes the jobs in job order, as lab.Run does, so
	// line 0 never waits behind the rest of the batch; each outcome lands
	// in its own single-slot channel so the writer streams strictly in job
	// order while later jobs keep computing. A disconnected client's
	// unstarted jobs are skipped before they can claim a service-wide
	// semaphore slot or a simulation; jobs that already started run to
	// completion and land in the shared cache.
	ctx := r.Context()
	type outcome struct {
		res sim.Result
		err error
	}
	ready := make([]chan outcome, len(req.Jobs))
	for i := range ready {
		ready[i] = make(chan outcome, 1)
	}
	runJob := func(j lab.Job) outcome {
		if ctx.Err() == nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
				res, err := s.cache.DoContext(ctx, j)
				return outcome{res, err}
			case <-ctx.Done():
			}
		}
		s.count(func(c *Counters) { c.CanceledJobs++ })
		return outcome{err: ctx.Err()}
	}
	var next atomic.Int64
	for range workers {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(req.Jobs) {
					return
				}
				ready[i] <- runJob(req.Jobs[i])
			}
		}()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for i := range req.Jobs {
		var o outcome
		select {
		case o = <-ready[i]:
		case <-ctx.Done():
			s.count(func(c *Counters) { c.DroppedReplies++ })
			s.logf("labd: sweep stream aborted at line %d/%d: %v", i, len(req.Jobs), ctx.Err())
			return
		}
		line := SweepLine{Index: i, Key: req.Jobs[i].Key()}
		if o.err != nil {
			line.Error = o.err.Error()
		} else {
			line.Result = &o.res
			s.count(func(c *Counters) {
				c.Frontend.CondBranches += o.res.CondBranches
				c.Frontend.Mispredicts += o.res.Mispredicts
				c.Frontend.PrefetchIssued += o.res.PrefetchIssued
				c.Frontend.PrefetchUseful += o.res.PrefetchUseful
				c.Frontend.PrefetchLate += o.res.PrefetchLate
			})
		}
		if err := enc.Encode(line); err != nil {
			// Client went away mid-stream; the cache keeps the finished work.
			s.count(func(c *Counters) { c.DroppedReplies++ })
			s.logf("labd: sweep stream dropped at line %d/%d: %v", i, len(req.Jobs), err)
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	q, err := frontierQuery(r.URL.Query())
	if err != nil {
		http.Error(w, "labd: "+err.Error(), http.StatusBadRequest)
		return
	}
	space, err := q.Space()
	if err != nil {
		http.Error(w, "labd: "+err.Error(), http.StatusBadRequest)
		return
	}
	out, err := q.Run(space, explore.Options{Cache: s.cache})
	if err != nil {
		http.Error(w, "labd: "+err.Error(), http.StatusInternalServerError)
		return
	}

	reply := FrontierReply{Tier: out.Tier, Frontier: []FrontierPoint{}}
	var frontier []explore.Point
	if rep := out.Tiered; rep != nil {
		reply.GridPoints = len(rep.Predicted)
		reply.ScreenedCells = len(rep.Predicted) - len(rep.Confirmed)
		reply.ConfirmedCells = len(rep.Confirmed)
		reply.Margin = rep.Margin
		reply.PredictionErr = &rep.Err
		frontier = rep.Frontier()
	} else {
		reply.GridPoints = len(out.Report.Points)
		if out.Tier == "sampled" {
			reply.SampledCells = reply.GridPoints
		}
		frontier = out.Report.Frontier()
	}
	s.count(func(c *Counters) {
		c.AnalyticCells += uint64(reply.ScreenedCells)
		c.ConfirmedCells += uint64(reply.ConfirmedCells)
		c.SampledCells += uint64(reply.SampledCells)
	})
	for _, p := range frontier {
		reply.Frontier = append(reply.Frontier, frontierPoint(p))
	}
	s.writeJSON(w, r, reply)
}

// frontierQuery reads /v1/frontier parameters through the explore CLI's
// own flag definitions: a parameter is the flag of the same name, spelled
// with '_' for '-'. An unknown parameter is an error; an empty value keeps
// the default. The grid-size guard is not among the flags, so a client
// cannot raise it.
func frontierQuery(params url.Values) (explore.Query, error) {
	q := explore.DefaultQuery()
	fs := flag.NewFlagSet("frontier", flag.ContinueOnError)
	q.Bind(fs)
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		flagName := strings.ReplaceAll(name, "_", "-")
		if fs.Lookup(flagName) == nil {
			return q, fmt.Errorf("unknown parameter %q", name)
		}
		if v := params.Get(name); v != "" {
			if err := fs.Set(flagName, v); err != nil {
				return q, fmt.Errorf("bad %s: %v", name, err)
			}
		}
	}
	return q, nil
}

// frontierPoint shapes one explore point for the wire.
func frontierPoint(p explore.Point) FrontierPoint {
	fp := FrontierPoint{
		Profile:     p.Profile.String(),
		Arch:        p.Arch.String(),
		Node:        float64(p.Node),
		Predictor:   p.Predictor,
		Prefetcher:  p.Prefetcher,
		FEBoostPct:  p.FEBoost,
		BEBoostPct:  p.BEBoost,
		Speedup:     p.Speedup,
		EnergyRatio: p.EnergyRatio,
		ECResidency: p.Result.ECResidency,
		IPC:         p.Result.IPC,
		TimePS:      p.Result.TimePS,
		BranchAcc:   p.Result.BranchAccuracy,
		L2HitRate:   p.Result.DemandL2HitRate,
		PfAccuracy:  p.Result.PrefetchAccuracy,
		PfCoverage:  p.Result.PrefetchCoverage,
	}
	if st := p.Result.Sampled; st != nil {
		fp.Sampled = true
		fp.IPCRelCI95 = st.IPCRelCI95
		fp.EnergyRelCI95 = st.EnergyRelCI95
	}
	return fp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	reply := StatsReply{
		Cache:         s.cache.Stats(),
		TraceCache:    sim.TraceCacheStats(),
		Version:       store.Version(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	s.mu.Lock()
	reply.Counters = s.counters
	s.mu.Unlock()
	if st := s.cache.Store(); st != nil {
		entries, bytes := st.Size()
		reply.Store = &StoreStats{Dir: st.Dir(), Entries: entries, Bytes: bytes, Stats: st.Stats()}
	}
	s.writeJSON(w, r, reply)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, HealthReply{
		Status:        "ok",
		Version:       store.Version(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// writeJSON encodes the reply and accounts for undeliverable ones: a
// client that vanishes mid-reply used to be indistinguishable from success
// (enc.Encode's error was discarded); now it is logged and counted in
// /v1/stats as dropped_replies.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.count(func(c *Counters) { c.DroppedReplies++ })
		s.logf("labd: %s %s reply dropped: %v", r.Method, r.URL.Path, err)
	}
}
