package labd_test

// Stream-resume tests: a sweep whose NDJSON reply dies mid-flight must
// not forfeit the prefix already received — the client re-requests only
// the missing suffix, verifies the resumed lines answer the right jobs,
// and splices them back into the caller's job order.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/labd"
)

// truncatingHandler serves a real labd but mutilates the FIRST sweep
// reply: it forwards bytes until the cut point, then swallows the rest of
// the stream (the client sees a short but otherwise clean body). With
// midLine set the cut lands inside a JSON line instead of after one.
type truncatingHandler struct {
	inner    http.Handler
	lines    int  // forward this many complete lines
	midLine  bool // then leak half of the next line
	fired    atomic.Bool
	requests atomic.Int64
}

func (h *truncatingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/sweep") {
		h.inner.ServeHTTP(w, r)
		return
	}
	h.requests.Add(1)
	if !h.fired.CompareAndSwap(false, true) {
		h.inner.ServeHTTP(w, r)
		return
	}
	h.inner.ServeHTTP(&truncatingWriter{inner: w, budget: h.lines, midLine: h.midLine}, r)
}

type truncatingWriter struct {
	inner    http.ResponseWriter
	budget   int // complete lines still to forward
	midLine  bool
	chopNext bool
	done     bool
}

func (t *truncatingWriter) Header() http.Header  { return t.inner.Header() }
func (t *truncatingWriter) WriteHeader(code int) { t.inner.WriteHeader(code) }
func (t *truncatingWriter) Flush() {
	if f, ok := t.inner.(http.Flusher); ok {
		f.Flush()
	}
}

func (t *truncatingWriter) Write(p []byte) (int, error) {
	if t.done {
		return len(p), nil // swallow: the "connection" is dead
	}
	if t.chopNext {
		// Chop inside this line to fake a mid-JSON connection cut.
		t.done = true
		if n := len(p) / 2; n > 0 {
			if _, err := t.inner.Write(p[:n]); err != nil {
				return 0, err
			}
		}
		return len(p), nil
	}
	keep := 0
	for keep < len(p) && t.budget > 0 {
		if i := bytes.IndexByte(p[keep:], '\n'); i >= 0 {
			keep += i + 1
			t.budget--
		} else {
			keep = len(p)
		}
	}
	if t.budget == 0 {
		if rest := len(p) - keep; t.midLine && rest > 1 {
			keep += rest / 2 // cut lands inside the next line in this chunk
			t.done = true
		} else if t.midLine {
			t.chopNext = true // next line arrives in its own Write; chop it then
		} else {
			t.done = true
		}
		if _, err := t.inner.Write(p[:keep]); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return t.inner.Write(p)
}

func resumeBatch(n int) []lab.Job {
	jobs := make([]lab.Job, n)
	for i := range jobs {
		jobs[i] = lab.Job{Workload: "gcc", FEBoostPct: i * 3, BEBoostPct: 50, MaxInstructions: 2000}
	}
	return jobs
}

// TestSweepResumesTruncatedStream: the reply dies after 2 of 6 lines; the
// client transparently re-requests the missing 4 and returns a complete,
// correctly ordered batch identical to an unbroken run.
func TestSweepResumesTruncatedStream(t *testing.T) {
	for _, midLine := range []bool{false, true} {
		name := "clean cut"
		if midLine {
			name = "mid-JSON cut"
		}
		t.Run(name, func(t *testing.T) {
			srv := labd.NewServer(lab.NewCache())
			srv.SetLogf(func(string, ...any) {})
			th := &truncatingHandler{inner: srv.Handler(), lines: 2, midLine: midLine}
			ts := httptest.NewServer(th)
			t.Cleanup(ts.Close)

			jobs := resumeBatch(6)
			client := labd.NewClient(ts.URL)
			lines, err := client.Sweep(labd.SweepRequest{Jobs: jobs})
			if err != nil {
				t.Fatalf("resumable sweep failed: %v", err)
			}
			want, err := lab.Run(jobs, lab.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range lines {
				if line.Index != i || line.Key != jobs[i].Key() {
					t.Fatalf("line %d misordered after resume: index %d key %q", i, line.Index, line.Key)
				}
				got, _ := json.Marshal(line.Result)
				exp, _ := json.Marshal(want[i])
				if string(got) != string(exp) {
					t.Fatalf("job %d result differs after resume:\n got %s\nwant %s", i, got, exp)
				}
			}
			if client.Resumes() != 1 {
				t.Fatalf("resumes = %d, want 1", client.Resumes())
			}
			if th.requests.Load() != 2 {
				t.Fatalf("server saw %d sweep requests, want 2", th.requests.Load())
			}
		})
	}
}

// TestSweepResumeGivesUp: a stream that dies on every attempt fails after
// MaxResumes re-requests instead of looping forever. The server answers
// exactly one job per request (with the right key, so the failure is
// exhaustion, not misalignment).
func TestSweepResumeGivesUp(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		var req labd.SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Jobs) == 0 {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, cannedLine(req.Jobs[0].Key()))
		// ...and nothing more, ever.
	}))
	t.Cleanup(ts.Close)

	client := labd.NewClient(ts.URL)
	client.MaxResumes = 2
	_, err := client.Sweep(labd.SweepRequest{Jobs: resumeBatch(5)})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncation", err)
	}
	if got := requests.Load(); got != 3 { // 1 original + 2 resumes
		t.Fatalf("server saw %d requests, want 3", got)
	}
	if client.Resumes() != 2 {
		t.Fatalf("resumes = %d, want 2", client.Resumes())
	}
}

// cannedLine builds one valid NDJSON sweep line for the given key (the
// key contains quote characters, so it must be marshaled, not spliced).
func cannedLine(key string) string {
	b, _ := json.Marshal(map[string]any{"index": 0, "key": key, "result": map[string]any{}})
	return string(b)
}

// TestSweepResumeMisalignmentIsFatal: a resumed line answering the wrong
// job must be rejected, not spliced in under the wrong index. The canned
// server replays the same first line on every attempt, so the "resumed"
// line carries the already-received key.
func TestSweepResumeMisalignmentIsFatal(t *testing.T) {
	jobs := resumeBatch(3)
	body := cannedLine(jobs[0].Key()) + "\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)

	client := labd.NewClient(ts.URL)
	_, err := client.Sweep(labd.SweepRequest{Jobs: jobs})
	if err == nil || !strings.Contains(err.Error(), "resume misaligned") {
		t.Fatalf("err = %v, want resume misalignment", err)
	}
}

// TestScrubEndpoint: POST /v1/scrub audits the worker's store,
// quarantines planted corruption, and surfaces the pass in /v1/stats; a
// healthy follow-up pass is clean.
func TestScrubEndpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := labd.NewServer(lab.NewCacheWithStore(st))
	srv.SetLogf(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Populate the store through the service, then corrupt one entry.
	client := labd.NewClient(ts.URL)
	jobs := resumeBatch(4)
	if _, err := client.Sweep(labd.SweepRequest{Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	var victim string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") && victim == "" {
			victim = path
		}
		return nil
	})
	if victim == "" {
		t.Fatal("sweep persisted no entries")
	}
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := client.Scrub(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 4 || len(rep.Quarantined) != 1 {
		t.Fatalf("scrub report: %+v", rep)
	}
	if rep.Dir != dir || rep.Version != store.Version() {
		t.Fatalf("scrub stamped %q/%q", rep.Dir, rep.Version)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatal("corrupt entry still in place")
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scrubs != 1 || stats.QuarantinedFiles != 1 {
		t.Fatalf("stats scrubs=%d quarantined=%d", stats.Scrubs, stats.QuarantinedFiles)
	}

	// The damaged key transparently heals on the next sweep...
	if _, err := client.Sweep(labd.SweepRequest{Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	// ...and a second pass over the repaired store is clean.
	rep2, err := client.Scrub(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Quarantined) != 0 {
		t.Fatalf("second scrub still dirty: %+v", rep2.Quarantined)
	}
}
