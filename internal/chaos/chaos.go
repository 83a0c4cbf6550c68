// Package chaos injects deterministic, seeded faults into the sweep
// fabric so failure handling is a tested dimension, not a hope. Two
// injection surfaces cover the cluster's trust boundaries:
//
//   - RoundTripper wraps any http.RoundTripper and, per a replayable
//     schedule derived from a seed, drops requests before they reach the
//     wire, delays them, answers with synthesized 5xx, truncates response
//     bodies mid-stream (the NDJSON-sweep killer), and black-holes whole
//     hosts for scripted windows (a worker crash and restart, as seen
//     from the coordinator).
//   - CorruptTree walks a directory (a store shard) and plants bit-flip
//     and truncation corruption in a deterministic subset of files,
//     returning a manifest of exactly what it broke so a scrubber can be
//     held to finding 100% of it.
//
// Determinism: every decision is a pure function of (seed, scope,
// occurrence counter) — no global RNG, no time. A RoundTripper's scope is
// the request's host name without its port, and its occurrence counter
// counts requests per host and port. Two runs with the same seed and the
// same request sequence per host inject the same fault multiset even when
// the servers listen on fresh ephemeral ports, so a chaos test's
// invariants (byte-identical results, zero lost jobs) are replayable, and
// a failure reproduces from its seed. Servers that share a host name see
// the same rolls at the same occurrence.
//
// RoundTrippers compose: stack one that truncates only /v1/sweep bodies
// on top of one that drops a small fraction of everything.
package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flywheel/internal/splitmix"
)

// Plan is a seeded fault schedule. Probabilities are per matching
// request, in [0,1]; zero fields inject nothing of that kind.
type Plan struct {
	// Seed keys every decision; the same seed replays the same schedule.
	Seed uint64

	// Drop is the probability a request fails with a synthesized
	// connection error before reaching the server.
	Drop float64
	// Delay is the probability a request is stalled before forwarding;
	// the stall is in [MaxDelay/2, MaxDelay).
	Delay    float64
	MaxDelay time.Duration
	// Err5xx is the probability a request is answered with a synthesized
	// 500/503 (alternating by schedule) without contacting the server.
	Err5xx float64
	// Truncate is the probability a response body is cut after a
	// schedule-chosen prefix, ending in an abrupt transport error —
	// exactly what a connection death mid-NDJSON-stream looks like.
	Truncate float64

	// PathSubstr, when non-empty, restricts all faults to requests whose
	// URL path contains it (e.g. "/v1/sweep").
	PathSubstr string

	// Outages script per-host unavailability windows: after After
	// requests to Host have been observed, the next For requests to it
	// fail outright. From a coordinator's seat this is a worker crash
	// (the window opens) and restart (it closes).
	Outages []Outage
}

// Outage is one scripted per-host blackout window, counted in requests.
type Outage struct {
	Host  string // request URL host (host:port)
	After int    // requests to Host that succeed normally first
	For   int    // requests failed outright once the window opens
}

// Counts reports what a RoundTripper injected so far.
type Counts struct {
	Requests       uint64 `json:"requests"`
	Drops          uint64 `json:"drops"`
	Delays         uint64 `json:"delays"`
	Errs5xx        uint64 `json:"errs_5xx"`
	Truncations    uint64 `json:"truncations"`
	OutageFailures uint64 `json:"outage_failures"`
}

// Injected is the total number of faulted requests.
func (c Counts) Injected() uint64 {
	return c.Drops + c.Errs5xx + c.Truncations + c.OutageFailures
}

func (c Counts) String() string {
	return fmt.Sprintf("%d faults over %d requests (drops %d, 5xx %d, truncated %d, outage %d, delayed %d)",
		c.Injected(), c.Requests, c.Drops, c.Errs5xx, c.Truncations, c.OutageFailures, c.Delays)
}

// RoundTripper injects Plan's faults in front of an inner transport. It
// is safe for concurrent use.
type RoundTripper struct {
	plan Plan
	next http.RoundTripper

	mu      sync.Mutex
	perHost map[string]int // requests observed per host, for outages and schedules

	requests       atomic.Uint64
	drops          atomic.Uint64
	delays         atomic.Uint64
	errs5xx        atomic.Uint64
	truncations    atomic.Uint64
	outageFailures atomic.Uint64
}

// New wraps next (nil means http.DefaultTransport) in plan's faults.
func New(plan Plan, next http.RoundTripper) *RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &RoundTripper{plan: plan, next: next, perHost: make(map[string]int)}
}

// Counts snapshots the injection counters.
func (t *RoundTripper) Counts() Counts {
	return Counts{
		Requests:       t.requests.Load(),
		Drops:          t.drops.Load(),
		Delays:         t.delays.Load(),
		Errs5xx:        t.errs5xx.Load(),
		Truncations:    t.truncations.Load(),
		OutageFailures: t.outageFailures.Load(),
	}
}

// droppedError is the synthesized transport failure for drops/outages.
type droppedError struct{ kind, host string }

func (e *droppedError) Error() string {
	return fmt.Sprintf("chaos: injected %s for %s", e.kind, e.host)
}

func (t *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	host := req.URL.Host
	if t.plan.PathSubstr != "" && !strings.Contains(req.URL.Path, t.plan.PathSubstr) {
		return t.next.RoundTrip(req)
	}

	t.mu.Lock()
	n := t.perHost[host]
	t.perHost[host] = n + 1
	t.mu.Unlock()

	for _, o := range t.plan.Outages {
		if o.Host == host && n >= o.After && n < o.After+o.For {
			t.outageFailures.Add(1)
			return nil, &droppedError{"outage", host}
		}
	}

	// One deterministic roll stream per (seed, host name, occurrence): the
	// port is left out, so a seed replays against servers on fresh ports.
	r := newRolls(t.plan.Seed, req.URL.Hostname(), uint64(n))
	if r.below(t.plan.Drop) {
		t.drops.Add(1)
		return nil, &droppedError{"drop", host}
	}
	delay := r.below(t.plan.Delay)
	err5 := r.below(t.plan.Err5xx)
	trunc := r.below(t.plan.Truncate)
	cut := 1 + int(r.Next()%512) // truncation prefix length in bytes

	if delay && t.plan.MaxDelay > 0 {
		t.delays.Add(1)
		d := t.plan.MaxDelay/2 + time.Duration(r.Next()%uint64(t.plan.MaxDelay/2+1))
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	if err5 {
		t.errs5xx.Add(1)
		code := http.StatusInternalServerError
		if r.Next()%2 == 0 {
			code = http.StatusServiceUnavailable
		}
		return synthesized(req, code), nil
	}

	resp, err := t.next.RoundTrip(req)
	if err != nil || !trunc {
		return resp, err
	}
	t.truncations.Add(1)
	resp.Body = &truncatedBody{inner: resp.Body, remaining: cut, host: host}
	resp.ContentLength = -1
	return resp, nil
}

// synthesized builds an in-memory 5xx reply, body included, so clients
// exercise their non-200 paths exactly as against a real server.
func synthesized(req *http.Request, code int) *http.Response {
	body := fmt.Sprintf("chaos: injected %d\n", code)
	h := http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}}
	if code == http.StatusServiceUnavailable {
		h.Set("Retry-After", "1")
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncatedBody serves a prefix of the real body, then fails the read the
// way a severed connection does (an error, not a clean EOF).
type truncatedBody struct {
	inner     io.ReadCloser
	remaining int
	host      string
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, &droppedError{"mid-stream cut", b.host}
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= n
	if err == io.EOF {
		// The real body ended inside the allowance: pass EOF through
		// (nothing was actually cut).
		return n, err
	}
	if b.remaining <= 0 {
		b.inner.Close()
		if n > 0 {
			return n, nil
		}
		return 0, &droppedError{"mid-stream cut", b.host}
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }

// rolls is a deterministic per-event decision stream: splitmix64 seeded
// by (seed, scope, occurrence).
type rolls struct{ splitmix.Rand }

func newRolls(seed uint64, scope string, n uint64) *rolls {
	h := seed
	for _, b := range []byte(scope) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return &rolls{splitmix.Rand(h ^ (n * splitmix.Gamma))}
}

// below draws one roll and reports whether it lands under probability p.
func (r *rolls) below(p float64) bool {
	return p > 0 && r.Float() < p
}
