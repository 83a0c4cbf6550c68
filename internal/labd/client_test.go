package labd_test

// Stream-robustness table tests for Client.Sweep: the NDJSON decoder must
// reject every protocol violation a broken server or transport can
// produce — duplicate or reordered index lines, truncated streams, a
// single line overflowing the 64 MiB scanner cap — and tolerate the one
// benign irregularity (blank lines).

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flywheel/internal/lab"
	"flywheel/internal/labd"
)

// cannedServer replies to every sweep with exactly body.
func cannedServer(t *testing.T, body string) *labd.Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	cl := labd.NewClient(ts.URL)
	// A canned server replays the same body on a resume, which would
	// misalign keys; these cases exercise the decoder, not resumption.
	cl.MaxResumes = -1
	return cl
}

func TestSweepStreamRobustness(t *testing.T) {
	twoJobs := labd.SweepRequest{Jobs: []lab.Job{
		{Workload: "a", MaxInstructions: 1000},
		{Workload: "b", MaxInstructions: 1000},
	}}
	line0 := `{"index":0,"key":"k0","result":{}}`
	line1 := `{"index":1,"key":"k1","result":{}}`

	cases := []struct {
		name    string
		body    string
		wantErr string // substring; empty = success expected
	}{
		{"well-formed", line0 + "\n" + line1 + "\n", ""},
		{"empty lines tolerated", "\n" + line0 + "\n   \n" + line1 + "\n\n", ""},
		{"duplicate index", line0 + "\n" + line0 + "\n", "out of order"},
		{"out of order", line1 + "\n" + line0 + "\n", "out of order"},
		{"truncated after one result", line0 + "\n", "truncated"},
		{"empty stream", "", "truncated"},
		{"extra trailing line", line0 + "\n" + line1 + "\n" + `{"index":2,"key":"k2","result":{}}` + "\n", "overran"},
		{"garbage line", line0 + "\nnot json\n", "bad line"},
		{"2 MiB result line grows the buffer",
			`{"index":0,"key":"k0","result":{` + strings.Repeat(" ", 2<<20) + `}}` + "\n" + line1 + "\n", ""},
		{"oversized single line at the 64 MiB cap",
			`{"index":0,"key":"` + strings.Repeat("a", 64<<20) + `"}` + "\n", "stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client := cannedServer(t, tc.body)
			lines, err := client.Sweep(twoJobs)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(lines) != 2 || lines[0].Key != "k0" || lines[1].Key != "k1" {
					t.Fatalf("bad lines: %+v", lines)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestSweepJobErrorStillReturnsLines: a job-level error line yields both
// the full line slice and the error — the fabric relies on this to tell
// terminal job failures from retryable transport failures.
func TestSweepJobErrorStillReturnsLines(t *testing.T) {
	body := `{"index":0,"key":"k0","result":{}}` + "\n" +
		`{"index":1,"key":"k1","error":"boom"}` + "\n"
	client := cannedServer(t, body)
	lines, err := client.Sweep(labd.SweepRequest{Jobs: []lab.Job{{Workload: "a"}, {Workload: "b"}}})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the job error", err)
	}
	if len(lines) != 2 || lines[1].Error != "boom" {
		t.Fatalf("lines = %+v", lines)
	}
}

// TestSweepBackpressureTagged: a 503 reply is recognizable via
// IsBackpressure so load-shedding is distinguishable from hard failure.
func TestSweepBackpressureTagged(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shedding load", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	_, err := labd.NewClient(ts.URL).Sweep(labd.SweepRequest{Jobs: []lab.Job{{Workload: "a"}}})
	if !labd.IsBackpressure(err) {
		t.Fatalf("503 not tagged as backpressure: %v", err)
	}
	_, err = cannedServer(t, "").Sweep(labd.SweepRequest{Jobs: []lab.Job{{Workload: "a"}}})
	if labd.IsBackpressure(err) {
		t.Fatalf("non-503 tagged as backpressure: %v", err)
	}
}
