package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"flywheel/internal/lab"
	"flywheel/internal/labd"
	"flywheel/internal/stats"
)

// The coordinator speaks the same protocol as a single labd — /v1/sweep,
// /v1/stats, /v1/frontier, /v1/health — so every existing client
// (labd.Client, flywheel.NewClient, curl scripts) points at a cluster
// unchanged.

// WorkerStats is one worker's slice of the cluster stats.
type WorkerStats struct {
	URL      string  `json:"url"`
	Requests uint64  `json:"requests"`
	Failures uint64  `json:"failures"`
	P99Ms    float64 `json:"p99_ms"`
	// Stats is the worker's own /v1/stats reply; Error is set instead when
	// the worker was unreachable.
	Stats *labd.StatsReply `json:"stats,omitempty"`
	Error string           `json:"error,omitempty"`
}

// CoordStats are the coordinator's own counters.
type CoordStats struct {
	Requests       uint64 `json:"requests"`
	Jobs           uint64 `json:"jobs"`
	Retries        uint64 `json:"retries"`
	Hedges         uint64 `json:"hedges"`
	Steals         uint64 `json:"steals"`
	Rejected       uint64 `json:"rejected"`
	DroppedReplies uint64 `json:"dropped_replies"`
	Pending        int64  `json:"pending"`
}

// ClusterStats is the coordinator's /v1/stats body. Cache and the
// embedded labd.Counters sum the reachable workers' records field by
// field, so clients (labload) compute cluster-wide memory/disk/sim tier
// hit rates the same way they would for one labd.
type ClusterStats struct {
	Cache lab.Stats  `json:"cache"`
	Coord CoordStats `json:"coord"`
	// Counters sums the workers' service counters; the coordinator's own
	// dropped replies are Coord.DroppedReplies.
	labd.Counters
	Workers       []WorkerStats `json:"workers"`
	UptimeSeconds float64       `json:"uptime_seconds"`
}

// ClusterHealth is the coordinator's /v1/health body.
type ClusterHealth struct {
	Status  string          `json:"status"` // "ok" when every worker is; "degraded" when some are
	Workers map[string]bool `json:"workers"`
}

// Handler returns the coordinator's HTTP routes.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", c.handleSweep)
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	mux.HandleFunc("GET /v1/health", c.handleHealth)
	mux.HandleFunc("GET /v1/frontier", c.handleFrontier)
	mux.HandleFunc("POST /v1/scrub", c.handleScrub)
	return mux
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req labd.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "fabric: bad sweep request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Jobs) == 0 {
		http.Error(w, "fabric: empty job list", http.StatusBadRequest)
		return
	}
	if len(req.Jobs) > labd.MaxBatch {
		http.Error(w, fmt.Sprintf("fabric: %d jobs exceeds the %d-job batch limit", len(req.Jobs), labd.MaxBatch), http.StatusBadRequest)
		return
	}
	// req.Workers is a single-process knob; the cluster's concurrency is
	// governed by the per-shard in-flight bounds instead, so it is
	// accepted and ignored.

	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	headerSent := false
	emit := func(line labd.SweepLine) error {
		if !headerSent {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			headerSent = true
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	err := c.Sweep(r.Context(), req.Jobs, emit)
	if err == ErrBusy {
		w.Header().Set("Retry-After", "1")
		http.Error(w, ErrBusy.Error(), http.StatusServiceUnavailable)
		return
	}
	if err != nil && !headerSent {
		http.Error(w, "fabric: "+err.Error(), http.StatusInternalServerError)
	}
	// Mid-stream failure: the truncated stream is the signal; the client's
	// decoder rejects it.
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	reply := ClusterStats{Coord: c.snapshot(), UptimeSeconds: time.Since(c.start).Seconds()}
	replies := make([]labd.StatsReply, len(c.order))
	errs := make([]error, len(c.order))
	c.eachWorker(r.Context(), c.order, func(ctx context.Context, i int, sh *shard) {
		replies[i], errs[i] = sh.client.StatsContext(ctx)
	})
	for i, url := range c.order {
		ws := c.shards[url].snapshot()
		if err := errs[i]; err != nil {
			ws.Error = err.Error()
		} else {
			st := replies[i]
			ws.Stats = &st
			reply.Cache = stats.Sum(reply.Cache, st.Cache)
			reply.Counters = stats.Sum(reply.Counters, st.Counters)
		}
		reply.Workers = append(reply.Workers, ws)
	}
	c.writeJSON(w, reply)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	reply := ClusterHealth{
		Status:  "ok",
		Workers: make(map[string]bool, len(c.order)),
	}
	for i, err := range c.health(r.Context(), c.order) {
		reply.Workers[c.order[i]] = err == nil
		if err != nil {
			reply.Status = "degraded"
		}
	}
	c.writeJSON(w, reply)
}

// WorkerScrub is one worker's slice of a cluster scrub.
type WorkerScrub struct {
	URL string `json:"url"`
	// Scrub is the worker's /v1/scrub reply; Error is set instead when the
	// worker was unreachable or refused.
	Scrub *labd.ScrubReply `json:"scrub,omitempty"`
	Error string           `json:"error,omitempty"`
}

// ClusterScrub is the coordinator's /v1/scrub body.
type ClusterScrub struct {
	Entries     int           `json:"entries"`
	Quarantined int           `json:"quarantined"`
	Workers     []WorkerScrub `json:"workers"`
}

// handleScrub fans a store-integrity scrub out to every worker and
// aggregates the reports. Workers scrub concurrently — their shards are
// disjoint directories — and a dead worker yields an error slot, not a
// failed scrub.
func (c *Coordinator) handleScrub(w http.ResponseWriter, r *http.Request) {
	replies := make([]WorkerScrub, len(c.order))
	var wg sync.WaitGroup
	for i, url := range c.order {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			replies[i] = WorkerScrub{URL: sh.url}
			rep, err := sh.client.Scrub(r.Context())
			if err != nil {
				replies[i].Error = err.Error()
				return
			}
			replies[i].Scrub = &rep
		}(i, c.shards[url])
	}
	wg.Wait()
	total := ClusterScrub{Workers: replies}
	for _, ws := range replies {
		if ws.Scrub == nil {
			continue
		}
		total.Entries += ws.Scrub.Entries
		total.Quarantined += len(ws.Scrub.Quarantined)
	}
	c.writeJSON(w, total)
}

// handleFrontier forwards the Pareto query to one worker chosen by the
// query's hash — the same query always lands on the same shard, so its
// grid stays memoized there — failing over to the next owner when the
// worker is unreachable.
func (c *Coordinator) handleFrontier(w http.ResponseWriter, r *http.Request) {
	var lastErr error
	for _, url := range c.ring.Owners("frontier|"+r.URL.RawQuery, len(c.order)) {
		target := url + "/v1/frontier"
		if r.URL.RawQuery != "" {
			target += "?" + r.URL.RawQuery
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := c.opt.HTTPClient.Do(req)
		if err != nil {
			lastErr = err
			c.count(func(s *CoordStats) { s.Retries++ })
			continue
		}
		defer resp.Body.Close()
		// Any complete worker reply — success or a 4xx/5xx of its own — is
		// forwarded verbatim; only transport failure tries the next owner.
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		if _, err := io.Copy(w, resp.Body); err != nil {
			c.count(func(s *CoordStats) { s.DroppedReplies++ })
		}
		return
	}
	http.Error(w, fmt.Sprintf("fabric: no worker reachable for frontier: %v", lastErr), http.StatusBadGateway)
}

func (c *Coordinator) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		c.count(func(s *CoordStats) { s.DroppedReplies++ })
		c.opt.Logf("fabric: reply dropped: %v", err)
	}
}
