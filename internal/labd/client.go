package labd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// DefaultMaxResumes is how many times one Sweep re-requests the missing
// suffix of a truncated stream before giving up.
const DefaultMaxResumes = 3

// Client submits batches to a running labd service. Its Sweep mirrors
// lab.Run's contract: results come back in job order, and if any job
// failed the error of the lowest-indexed failing job is returned alongside
// the batch.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Sweeps can simulate for
	// a long time on a cold store; configure a timeout only via context
	// or a transport that tolerates streaming.
	HTTPClient *http.Client
	// MaxResumes bounds how many times one Sweep resumes after a broken
	// stream: the validated prefix is kept and only the missing suffix is
	// re-requested (the server's cache makes the overlap free). Zero uses
	// DefaultMaxResumes; negative disables resumption.
	MaxResumes int

	resumes atomic.Uint64
}

// Resumes reports how many stream resumptions this client has performed.
func (c *Client) Resumes() uint64 { return c.resumes.Load() }

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpc() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Sweep submits jobs and decodes the NDJSON stream. The returned slice is
// always len(jobs) long and in job order; like lab.Run, a failing job
// leaves its zero Result in place and the lowest-indexed failure becomes
// the returned error.
func (c *Client) Sweep(req SweepRequest) ([]SweepLine, error) {
	return c.SweepContext(context.Background(), req)
}

// SweepContext is Sweep with cancellation: ending the context aborts the
// request and the stream read; the service skips the batch's unstarted
// jobs.
//
// A stream that dies mid-flight (connection cut, truncated NDJSON, a
// line chopped mid-JSON) does not forfeit the results already received:
// the client checkpoints the validated prefix and re-requests only the
// missing suffix, up to MaxResumes times. Resumed lines are verified
// against the jobs they claim to answer (key match) and re-indexed into
// the caller's job order, so a confused server cannot misattribute
// results. Protocol violations — out-of-order indexes, overruns, non-200
// replies — stay terminal: they mean the server is wrong, not the wire.
func (c *Client) SweepContext(ctx context.Context, req SweepRequest) ([]SweepLine, error) {
	maxResumes := c.MaxResumes
	if maxResumes == 0 {
		maxResumes = DefaultMaxResumes
	}
	if maxResumes < 0 {
		maxResumes = 0
	}
	all := make([]SweepLine, 0, len(req.Jobs))
	for resume := 0; ; resume++ {
		remaining := req.Jobs[len(all):]
		lines, err := c.sweepOnce(ctx, SweepRequest{Jobs: remaining, Workers: req.Workers})
		if resume > 0 {
			// The suffix answers a fresh request: its lines must name the
			// jobs we are still missing, in their order.
			for i := range lines {
				if i >= len(remaining) || lines[i].Key != remaining[i].Key() {
					return nil, fmt.Errorf("labd client: resume misaligned: line %d answers key %q", i, lines[i].Key)
				}
			}
		}
		for _, line := range lines {
			line.Index = len(all)
			all = append(all, line)
		}
		switch {
		case len(all) == len(req.Jobs) && (err == nil || errors.Is(err, errResumable)):
			// Complete — a stream error after the last line is harmless.
			return all, firstJobError(all)
		case err == nil:
			return nil, fmt.Errorf("labd client: stream truncated: %d of %d results", len(all), len(req.Jobs))
		case !errors.Is(err, errResumable), resume >= maxResumes, ctx.Err() != nil:
			return nil, err
		}
		c.resumes.Add(1)
		// Brief pause so a worker mid-restart is not hammered.
		t := time.NewTimer(time.Duration(resume+1) * 50 * time.Millisecond)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, err
		}
	}
}

// sweepOnce performs one POST /v1/sweep round trip, returning the
// validated prefix of the reply stream. Errors wrapping errResumable mean
// the prefix is trustworthy and the rest may be re-requested; anything
// else is terminal.
func (c *Client) sweepOnce(ctx context.Context, req SweepRequest) ([]SweepLine, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("labd client: encode request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("labd client: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc().Do(hreq)
	if err != nil {
		// Connection-level failure: nothing received, everything resumable.
		return nil, fmt.Errorf("labd client: %w%w", errResumable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("labd client: sweep: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
		if resp.StatusCode == http.StatusServiceUnavailable {
			err = fmt.Errorf("%w%w", errBackpressure, err)
		}
		return nil, err
	}
	return decodeSweepStream(resp.Body, len(req.Jobs))
}

// firstJobError mirrors lab.Run's contract: the lowest-indexed failing
// job's error is returned alongside the full batch.
func firstJobError(lines []SweepLine) error {
	for _, line := range lines {
		if line.Error != "" {
			return errors.New(line.Error)
		}
	}
	return nil
}

// errBackpressure tags a 503 reply so callers can distinguish "retry
// later" from a hard failure.
var errBackpressure = errors.New("")

// IsBackpressure reports whether err is a service 503 — the cluster or
// service shed the request and the client should honor Retry-After.
func IsBackpressure(err error) bool { return errors.Is(err, errBackpressure) }

// errResumable tags stream failures where the lines already decoded are
// trustworthy and the remainder may be re-requested: the wire died, not
// the protocol.
var errResumable = errors.New("")

// decodeSweepStream validates and collects the NDJSON response body. The
// protocol invariants it enforces — strictly increasing indexes starting
// at zero (no duplicates, no reordering), exactly n lines, every line
// under the 64 MiB scanner cap — turn any server or transport corruption
// into an error instead of silently misattributed results. Blank lines
// are tolerated (keep-alive padding).
//
// The scanner buffer starts small and doubles only for a longer line: a
// result line is about 700 B, and the fabric decodes one stream per job,
// so a large up-front buffer would be allocated and cleared for nothing.
//
// On failure the validated prefix is returned alongside the error.
// Failures that look like a dying connection — a read error, a clean but
// short stream, a final line chopped mid-JSON — wrap errResumable;
// protocol violations (reordering, overruns) do not.
func decodeSweepStream(body io.Reader, n int) ([]SweepLine, error) {
	lines := make([]SweepLine, 0, n)
	sc := bufio.NewScanner(body)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line SweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			// A chopped final line is truncation wearing JSON clothes.
			return lines, fmt.Errorf("labd client: bad line %d: %w%w", len(lines), errResumable, err)
		}
		if line.Index != len(lines) {
			return lines, fmt.Errorf("labd client: line %d arrived out of order (index %d)", len(lines), line.Index)
		}
		if len(lines) == n {
			return lines, fmt.Errorf("labd client: stream overran: more than %d results", n)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return lines, fmt.Errorf("labd client: stream: %w%w", errResumable, err)
	}
	if len(lines) != n {
		return lines, fmt.Errorf("labd client: stream truncated: %d of %d results%w", len(lines), n, errResumable)
	}
	return lines, nil
}

// Stats fetches the service counters.
func (c *Client) Stats() (StatsReply, error) {
	return c.StatsContext(context.Background())
}

// StatsContext is Stats with cancellation.
func (c *Client) StatsContext(ctx context.Context) (StatsReply, error) {
	var reply StatsReply
	err := c.call(ctx, http.MethodGet, "stats", nil, &reply)
	return reply, err
}

// Health probes the service's liveness endpoint.
func (c *Client) Health(ctx context.Context) (HealthReply, error) {
	var reply HealthReply
	err := c.call(ctx, http.MethodGet, "health", nil, &reply)
	return reply, err
}

// Scrub asks the service to audit its disk tier and returns the report.
func (c *Client) Scrub(ctx context.Context) (ScrubReply, error) {
	var reply ScrubReply
	err := c.call(ctx, http.MethodPost, "scrub", nil, &reply)
	return reply, err
}

// Frontier runs an explore-style Pareto query; params mirror the explore
// CLI flags (nil or empty values use the server defaults).
func (c *Client) Frontier(params map[string]string) (FrontierReply, error) {
	return c.FrontierContext(context.Background(), params)
}

// FrontierContext is Frontier with cancellation.
func (c *Client) FrontierContext(ctx context.Context, params map[string]string) (FrontierReply, error) {
	var reply FrontierReply
	q := url.Values{}
	for k, v := range params {
		q.Set(k, v)
	}
	err := c.call(ctx, http.MethodGet, "frontier", q, &reply)
	return reply, err
}

// call sends one bodiless request to /v1/<name> and decodes its 200 JSON
// reply into dst. A non-200 reply becomes "labd client: <name>: <status>",
// followed by up to 4 KiB of its body when it has one.
func (c *Client) call(ctx context.Context, method, name string, query url.Values, dst any) error {
	u := c.BaseURL + "/v1/" + name
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	hreq, err := http.NewRequestWithContext(ctx, method, u, nil)
	if err != nil {
		return fmt.Errorf("labd client: %w", err)
	}
	resp, err := c.httpc().Do(hreq)
	if err != nil {
		return fmt.Errorf("labd client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if m := strings.TrimSpace(string(msg)); m != "" {
			return fmt.Errorf("labd client: %s: %s: %s", name, resp.Status, m)
		}
		return fmt.Errorf("labd client: %s: %s", name, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		return fmt.Errorf("labd client: decode %s: %w", name, err)
	}
	return nil
}
