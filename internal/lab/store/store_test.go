package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flywheel/internal/cacti"
	"flywheel/internal/sim"
)

func testResult(t int64) sim.Result {
	return sim.Result{
		Config: sim.RunConfig{Workload: "w", Arch: sim.ArchFlywheel, Node: cacti.Node130,
			FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 300_000},
		TimePS: t, Cycles: 123, Retired: 456, IPC: 1.2345678901234567,
		EnergyPJ: 9.87654321e6, PowerW: 3.25, LeakageFrac: 0.125,
		ECResidency: 0.75, Divergences: 3,
		Mispredicts: 17, BranchAccuracy: 0.96875,
	}
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := `wl="gz|ip"|arch=1|node=0.13|fe=50|be=50|n=300000|fes=0|pws=false`
	want := testResult(1000)
	if _, ok := s.Get(key); ok {
		t.Fatal("Get on an empty store hit")
	}
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if got != want {
		t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.BadEntries != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put", st)
	}
	if n, b := s.Size(); n != 1 || b <= 0 {
		t.Fatalf("Size() = %d entries, %d bytes; want 1 entry with content", n, b)
	}
}

// TestSharedAcrossOpens: a second Open over the same directory sees the
// first one's entries — the cross-process persistence contract.
func TestSharedAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("k", testResult(7)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("k")
	if !ok || got.TimePS != 7 {
		t.Fatalf("second open: got %+v ok=%t, want the persisted entry", got, ok)
	}
}

// TestCorruptEntryIsIgnored: truncated or garbage entry files — what a
// crash mid-write would leave if writes were not atomic, or disk
// corruption — read as misses, and a recompute's Put repairs them.
func TestCorruptEntryIsIgnored(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "k"
	if err := s.Put(key, testResult(1)); err != nil {
		t.Fatal(err)
	}
	path := s.path(key)

	for _, corrupt := range [][]byte{
		nil,                     // zero-length file
		[]byte("{\"version\":"), // truncated JSON
		[]byte("not json at all"),
	} {
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Fatalf("corrupt entry %q served as a hit", corrupt)
		}
		// Recompute path: Put repairs the entry in place.
		if err := s.Put(key, testResult(2)); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); !ok || got.TimePS != 2 {
			t.Fatalf("repair after corruption failed: %+v ok=%t", got, ok)
		}
	}
	if st := s.Stats(); st.BadEntries != 3 {
		t.Fatalf("BadEntries = %d, want 3", st.BadEntries)
	}
}

// TestVersionMismatchIsIgnored: an entry stamped with a different version
// must read as a miss even if it sits at the current address (defense in
// depth — normally the address itself changes with the version).
func TestVersionMismatchIsIgnored(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", testResult(1)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path("k"))
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(data), Version(), "s0-m0", 1)
	if doctored == string(data) {
		t.Fatalf("entry does not embed the version stamp: %s", data)
	}
	if err := os.WriteFile(s.path("k"), []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("entry with a stale version stamp served as a hit")
	}
}

// TestVersionChangesAddress: two stores over one directory with different
// versions never see each other's entries — bumping sim.ModelVersion
// orphans the old universe wholesale.
func TestVersionChangesAddress(t *testing.T) {
	dir := t.TempDir()
	cur, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := &Store{dir: dir, version: "s0-m0"}
	if err := old.Put("k", testResult(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get("k"); ok {
		t.Fatal("current-version store read an old-version entry")
	}
	if err := cur.Put("k", testResult(2)); err != nil {
		t.Fatal(err)
	}
	if got, ok := old.Get("k"); !ok || got.TimePS != 1 {
		t.Fatalf("old-version entry clobbered: %+v ok=%t", got, ok)
	}
	if n, _ := cur.Size(); n != 1 {
		t.Fatalf("Size() counts foreign versions: %d, want 1", n)
	}
}

// TestFrontendModelVersionInvalidatesStore pins the current
// sim.ModelVersion, 5, and that entries stamped by the versions before it
// are unreachable: version-3 entries lack the frontend observables and the
// (predictor, prefetcher) identity, and version-4 sampled Flywheel entries
// were computed with the since-deleted divergence storm breaker.
func TestFrontendModelVersionInvalidatesStore(t *testing.T) {
	if sim.ModelVersion != 5 {
		t.Fatalf("sim.ModelVersion = %d; the storm-breaker deletion shipped as version 5 — bump this test (and make sure the bump was intentional)", sim.ModelVersion)
	}
	for _, stamp := range []string{"s2-m3", "s2-m4"} {
		dir := t.TempDir()
		prev := &Store{dir: dir, version: stamp}
		if err := prev.Put("k", testResult(1)); err != nil {
			t.Fatal(err)
		}
		cur, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := cur.Get("k"); ok {
			t.Fatalf("a %s entry served as a hit under model v5", stamp)
		}
	}
}

// TestKeyMismatchIsIgnored: an entry whose stamped key does not match the
// requested key (hash collision, tampering) is rejected.
func TestKeyMismatchIsIgnored(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", testResult(1)); err != nil {
		t.Fatal(err)
	}
	// Copy a's entry file to b's address.
	data, err := os.ReadFile(s.path("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(s.path("b")), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path("b"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("entry stamped for key a served for key b")
	}
}

// TestNoTempFilesLeftBehind: every Put leaves exactly the entry files —
// the temp file is renamed away on success.
func TestNoTempFilesLeftBehind(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(strings.Repeat("k", i+1), testResult(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := filepath.Glob(filepath.Join(dir, "put-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
	if n, _ := s.Size(); n != 10 {
		t.Fatalf("Size() = %d, want 10", n)
	}
}
