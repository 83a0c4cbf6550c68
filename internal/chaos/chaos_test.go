package chaos

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestScheduleDeterminism: the same seed over the same request sequence
// injects the identical fault multiset, even against a server on another
// port; a different seed injects a different one.
func TestScheduleDeterminism(t *testing.T) {
	run := func(seed uint64) Counts {
		// A fresh server per run: each listens on its own ephemeral port.
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, strings.Repeat("x", 2048))
		}))
		defer ts.Close()
		rt := New(Plan{Seed: seed, Drop: 0.2, Err5xx: 0.2, Truncate: 0.2}, nil)
		client := &http.Client{Transport: rt}
		for i := 0; i < 200; i++ {
			resp, err := client.Get(ts.URL + "/v1/sweep")
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return rt.Counts()
	}
	a, b, c := run(7), run(7), run(8)
	if a != b {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if c == a {
		t.Fatalf("different seeds produced the identical schedule: %v", a)
	}
	if a.Injected() == 0 {
		t.Fatal("20%% fault rates injected nothing over 200 requests")
	}
	if a.Drops == 0 || a.Errs5xx == 0 || a.Truncations == 0 {
		t.Fatalf("some fault kind never fired: %v", a)
	}
}

// TestTruncationLooksLikeConnectionDeath: a truncated body yields a
// partial prefix then a read error — not a clean EOF a client could
// mistake for a complete stream.
func TestTruncationLooksLikeConnectionDeath(t *testing.T) {
	const body = "line-one\nline-two\nline-three\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, strings.Repeat(body, 100))
	}))
	t.Cleanup(ts.Close)

	rt := New(Plan{Seed: 1, Truncate: 1}, nil)
	resp, err := (&http.Client{Transport: rt}).Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("truncated body read to clean EOF with %d bytes", len(data))
	}
	if len(data) == 0 || len(data) >= 100*len(body) {
		t.Fatalf("truncation cut nothing sensible: %d bytes", len(data))
	}
	if rt.Counts().Truncations != 1 {
		t.Fatalf("counts: %v", rt.Counts())
	}
}

// TestOutageWindow: a scripted outage fails exactly the requests inside
// its window and heals afterwards — a crash/restart as seen by a client.
func TestOutageWindow(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	t.Cleanup(ts.Close)
	host := strings.TrimPrefix(ts.URL, "http://")

	rt := New(Plan{Seed: 1, Outages: []Outage{{Host: host, After: 3, For: 4}}}, nil)
	client := &http.Client{Transport: rt}
	var got []bool
	for i := 0; i < 10; i++ {
		resp, err := client.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
		}
		got = append(got, err == nil)
	}
	want := []bool{true, true, true, false, false, false, false, true, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d: ok=%t, want %t (all: %v)", i, got[i], want[i], got)
		}
	}
	if rt.Counts().OutageFailures != 4 {
		t.Fatalf("outage failures %d, want 4", rt.Counts().OutageFailures)
	}
}

// TestPathFilter: a scoped plan leaves other endpoints untouched.
func TestPathFilter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	t.Cleanup(ts.Close)
	rt := New(Plan{Seed: 1, Drop: 1, PathSubstr: "/v1/sweep"}, nil)
	client := &http.Client{Transport: rt}
	if resp, err := client.Get(ts.URL + "/v1/health"); err != nil {
		t.Fatalf("filtered path was faulted: %v", err)
	} else {
		resp.Body.Close()
	}
	if _, err := client.Get(ts.URL + "/v1/sweep"); err == nil {
		t.Fatal("matching path was not faulted")
	}
}

// TestSynthesized5xx: injected 5xx replies carry a body and Retry-After
// on 503, so clients exercise their real shed-handling paths.
func TestSynthesized5xx(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("request reached the server despite Err5xx=1")
	}))
	t.Cleanup(ts.Close)
	client := &http.Client{Transport: New(Plan{Seed: 3, Err5xx: 1}, nil)}
	saw503 := false
	for i := 0; i < 20 && !saw503; i++ {
		resp, err := client.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode < 500 {
			t.Fatalf("status %d, want 5xx", resp.StatusCode)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			saw503 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("injected 503 without Retry-After")
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if !saw503 {
		t.Fatal("no 503 among 20 injected 5xx")
	}
}

// TestDelayInjection: delays stall within [MaxDelay/2, MaxDelay) and
// honor context cancellation.
func TestDelayInjection(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	t.Cleanup(ts.Close)
	client := &http.Client{Transport: New(Plan{Seed: 1, Delay: 1, MaxDelay: 60 * time.Millisecond}, nil)}
	start := time.Now()
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delayed request returned in %v, want >= 30ms", d)
	}
}

// TestCorruptTreeManifest: planting is deterministic, guaranteed
// non-empty, covers both kinds over a large tree, and every manifest
// entry describes real damage on disk.
func TestCorruptTreeManifest(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		for i := 0; i < 60; i++ {
			sub := filepath.Join(dir, fmt.Sprintf("%02x", i%4))
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			content := strings.Repeat(fmt.Sprintf("entry-%d ", i), 8)
			if err := os.WriteFile(filepath.Join(sub, fmt.Sprintf("f%02d.json", i)), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Ineligible files must be skipped.
		os.WriteFile(filepath.Join(dir, "put-123.tmp"), []byte("tmp"), 0o644)
		os.WriteFile(filepath.Join(dir, "empty.json"), nil, 0o644)
		os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755)
		os.WriteFile(filepath.Join(dir, "quarantine", "old.json"), []byte("q"), 0o644)
		return dir
	}

	dirA, dirB := build(t), build(t)
	pristine := map[string][]byte{}
	filepath.WalkDir(dirA, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			data, _ := os.ReadFile(path)
			pristine[path] = data
		}
		return nil
	})
	manA, err := CorruptTree(dirA, 99, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	manB, err := CorruptTree(dirB, 99, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(manA) == 0 {
		t.Fatal("nothing corrupted at frac 0.3 over 60 files")
	}
	if len(manA) != len(manB) {
		t.Fatalf("same seed corrupted %d vs %d files", len(manA), len(manB))
	}
	kinds := map[string]int{}
	for i, c := range manA {
		relA, _ := filepath.Rel(dirA, c.Path)
		relB, _ := filepath.Rel(dirB, manB[i].Path)
		if relA != relB || c.Kind != manB[i].Kind {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, c, manB[i])
		}
		kinds[c.Kind]++
		if strings.Contains(c.Path, "quarantine") || strings.Contains(c.Path, "put-") {
			t.Fatalf("ineligible file corrupted: %s", c.Path)
		}
		// The damage is real: content changed on disk.
		after, err := os.ReadFile(c.Path)
		if err != nil {
			t.Fatal(err)
		}
		if string(after) == string(pristine[c.Path]) {
			t.Fatalf("%s listed in the manifest but unchanged", c.Path)
		}
	}
	if kinds["bitflip"] == 0 || kinds["truncate"] == 0 {
		t.Fatalf("only one corruption kind used: %v", kinds)
	}

	// Minimum-one guarantee at a vanishing fraction.
	one, err := CorruptTree(build(t), 5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Fatalf("frac 1e-12 corrupted %d files, want exactly the guaranteed one", len(one))
	}
}
