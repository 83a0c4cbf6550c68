package main

import (
	"bufio"
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flywheel/internal/lab/store"
)

// startLabd runs the command against port 0 and returns its base URL plus
// a stop func (idempotent) that triggers the graceful drain and waits for
// exit, reporting the exit code.
func startLabd(t *testing.T, extra ...string) (string, func() int) {
	t.Helper()
	ready := make(chan string, 1)
	stop := make(chan struct{})
	exited := make(chan int, 1)
	var out, errb bytes.Buffer
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() {
		exited <- run(args, &out, &errb, &control{ready: ready, stop: stop})
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-exited:
		t.Fatalf("labd exited %d before listening, stderr: %s", code, errb.String())
	case <-time.After(10 * time.Second):
		t.Fatal("labd never became ready")
	}
	var once sync.Once
	code := -1
	stopper := func() int {
		once.Do(func() {
			close(stop)
			select {
			case code = <-exited:
			case <-time.After(30 * time.Second):
				t.Error("labd did not shut down")
			}
		})
		return code
	}
	t.Cleanup(func() { stopper() })
	return "http://" + addr, stopper
}

func TestServesStats(t *testing.T) {
	base, _ := startLabd(t, "-store", t.TempDir())
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
}

// TestServesSweep: a store-backed server answers two identical sweeps
// with byte-identical NDJSON, one result line per job, and its /v1/stats
// answers afterwards.
func TestServesSweep(t *testing.T) {
	base, _ := startLabd(t, "-store", t.TempDir())
	body := `{"jobs":[{"Workload":"ijpeg","Arch":1,"FEBoostPct":50,"BEBoostPct":50,"MaxInstructions":20000},{"Workload":"gcc","Arch":0,"MaxInstructions":20000}]}`
	sweep := func() string {
		resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep: status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first, second := sweep(), sweep()
	if !strings.Contains(first, `"index":0`) || strings.Count(first, `"result"`) != 2 {
		t.Fatalf("sweep NDJSON lacks its 2 result lines: %s", first)
	}
	if first != second {
		t.Fatalf("repeat sweep differs:\n%s\n%s", first, second)
	}
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
}

// TestShutdownDrainsInFlightSweep: a shutdown request arriving mid-sweep
// must not cut the NDJSON stream — the response runs to completion (all
// lines, all results) and only then does the process exit, cleanly.
func TestShutdownDrainsInFlightSweep(t *testing.T) {
	base, stop := startLabd(t)

	const jobs = 8
	var sb strings.Builder
	sb.WriteString(`{"workers":1,"jobs":[`)
	for i := 0; i < jobs; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"Workload":"ijpeg","Arch":1,"FEBoostPct":` +
			string(rune('0'+i)) + `,"BEBoostPct":50,"MaxInstructions":30000}`)
	}
	sb.WriteString(`]}`)

	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	// One line is streaming; now ask the server to shut down.
	if _, err := rd.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	shutdownCode := make(chan int, 1)
	go func() { shutdownCode <- stop() }()

	// The remaining lines must still arrive, complete and well-formed.
	got := 1
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			break
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if !strings.Contains(line, `"result"`) {
			t.Fatalf("line %d degraded during drain: %s", got, line)
		}
		got++
	}
	if got != jobs {
		t.Fatalf("stream cut by shutdown: %d of %d lines", got, jobs)
	}
	if code := <-shutdownCode; code != 0 {
		t.Fatalf("drained shutdown exited %d, want 0", code)
	}
	// The listener is really gone.
	if _, err := http.Get(base + "/v1/stats"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

// TestShardFlag: -shard opens <store>/shard-<n>, giving each cluster
// worker a disjoint store directory.
func TestShardFlag(t *testing.T) {
	root := t.TempDir()
	base, stop := startLabd(t, "-store", root, "-shard", "2")
	body := `{"jobs":[{"Workload":"ijpeg","Arch":0,"MaxInstructions":2000}]}`
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	stop()
	entries, err := os.ReadDir(filepath.Join(root, "shard-002"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("shard directory not populated: %v (entries %d)", err, len(entries))
	}
	if _, err := os.Stat(filepath.Join(root, "shard-000")); err == nil {
		t.Fatal("wrong shard directory created")
	}
}

func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"stray-positional"},
		{"-shard", "0"}, // -shard without -store
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb, nil); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestBadStoreDir(t *testing.T) {
	var out, errb bytes.Buffer
	// A file in place of the store directory must fail cleanly.
	if code := run([]string{"-store", "/dev/null/impossible"}, &out, &errb, nil); code != 1 {
		t.Errorf("exit %d, want 1 for an unusable store path", code)
	}
}

func TestBadListenAddr(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-addr", "256.0.0.1:-1"}, &out, &errb, nil); code != 1 {
		t.Errorf("exit %d, want 1 for a bad listen address", code)
	}
}

// TestScrubOneShot: -scrub audits the store offline — exit 0 on a clean
// tree, exit 3 (with the quarantine listed) when corruption was found and
// moved aside, and a second pass over the cleaned tree is quiet again.
func TestScrubOneShot(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-store", dir, "-scrub"}, &out, &errb, nil); code != 0 {
		t.Fatalf("clean scrub exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "0 quarantined") {
		t.Fatalf("clean scrub report: %s", out.String())
	}

	// Plant an unparseable entry where real results live.
	bad := filepath.Join(dir, store.Version(), "deadbeef.json")
	if err := os.MkdirAll(filepath.Dir(bad), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-store", dir, "-scrub"}, &out, &errb, nil); code != 3 {
		t.Fatalf("dirty scrub exit %d, want 3\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "1 quarantined") || !strings.Contains(out.String(), "deadbeef.json") {
		t.Fatalf("dirty scrub report: %s", out.String())
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("corrupt file still in place after -scrub")
	}

	out.Reset()
	if code := run([]string{"-store", dir, "-scrub"}, &out, &errb, nil); code != 0 {
		t.Fatalf("post-quarantine scrub exit %d, stdout: %s", code, out.String())
	}
}

func TestScrubRequiresStore(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scrub"}, &out, &errb, nil); code != 2 {
		t.Errorf("exit %d, want 2 for -scrub without -store", code)
	}
}
