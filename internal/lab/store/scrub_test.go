package store

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"flywheel/internal/chaos"
)

// fillStore writes n entries and returns their keys.
func fillStore(t *testing.T, s *Store, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		if err := s.Put(keys[i], testResult(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestScrubHealthyStore: a clean shard scrubs clean.
func TestScrubHealthyStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 10)

	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 10 || rep.Bad() != 0 {
		t.Fatalf("healthy scrub: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(s.QuarantineDir(), "MANIFEST.ndjson")); !os.IsNotExist(err) {
		t.Fatal("clean scrub wrote a manifest")
	}
}

// TestScrubQuarantinesAllPlantedCorruption: chaos plants a seeded mix of
// bit flips and truncations across entries; one scrub
// pass must quarantine every manifest entry — and nothing else — move
// the bytes under quarantine/, log them to MANIFEST.ndjson, and leave
// every damaged key re-servable (miss, then Put repairs).
func TestScrubQuarantinesAllPlantedCorruption(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := fillStore(t, s, 40)

	planted, err := chaos.CorruptTree(s.Dir(), 42, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(planted) < 3 {
		t.Fatalf("only %d corruptions planted; pick a better seed", len(planted))
	}

	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 40 {
		t.Fatalf("checked %d entries, want 40", rep.Entries)
	}
	quarantined := map[string]bool{}
	for _, q := range rep.Quarantined {
		quarantined[q.Path] = true
		if _, err := os.Stat(q.To); err != nil {
			t.Fatalf("quarantined file not preserved at %s: %v", q.To, err)
		}
		if _, err := os.Stat(q.Path); !os.IsNotExist(err) {
			t.Fatalf("quarantined file still at original path %s", q.Path)
		}
		if q.Reason == "" {
			t.Fatalf("quarantine without a reason: %+v", q)
		}
	}
	for _, c := range planted {
		if !quarantined[c.Path] {
			t.Fatalf("planted %s corruption at %s not quarantined", c.Kind, c.Path)
		}
	}
	if len(quarantined) != len(planted) {
		t.Fatalf("quarantined %d files, planted %d — a healthy file was taken", len(quarantined), len(planted))
	}

	// The manifest records each move as one NDJSON line.
	data, err := os.ReadFile(filepath.Join(s.QuarantineDir(), "MANIFEST.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(planted) {
		t.Fatalf("manifest has %d lines, want %d", len(lines), len(planted))
	}
	for _, ln := range lines {
		var rec struct {
			Path, To, Reason string
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil || rec.Reason == "" || rec.To == "" {
			t.Fatalf("bad manifest line %q: %v", ln, err)
		}
	}

	// Every key still serves: quarantined ones miss and repair via Put.
	for i, key := range keys {
		got, ok := s.Get(key)
		if !ok {
			if err := s.Put(key, testResult(int64(i))); err != nil {
				t.Fatal(err)
			}
			got, ok = s.Get(key)
		}
		if !ok || got.TimePS != int64(i) {
			t.Fatalf("key %s unservable after scrub: %+v ok=%t", key, got, ok)
		}
	}
	// A second pass over the repaired shard is clean.
	rep2, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Bad() != 0 {
		t.Fatalf("second scrub still found %d bad files: %+v", rep2.Bad(), rep2.Quarantined)
	}
}

// TestScrubCatchesAddressMismatch: a perfectly valid entry copied to a
// different key's address (tampering, fs-level mixups) is quarantined —
// Get would never serve it, but it could shadow the real entry.
func TestScrubCatchesAddressMismatch(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", testResult(1)); err != nil {
		t.Fatal(err)
	}
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
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bad() != 1 || !strings.Contains(rep.Quarantined[0].Reason, "address mismatch") {
		t.Fatalf("misplaced entry not caught: %+v", rep)
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("the real entry was quarantined")
	}
}

// TestCorruptionTolerantReads is the satellite fuzz/table test: across
// seeded truncations, bit flips, wrong-version and wrong-key doctoring,
// Get must NEVER return a wrong result — every mutation reads as a miss
// (or, for no-op-equivalent mutations, the exact original), and a Put
// repairs the entry.
func TestCorruptionTolerantReads(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "fuzz-key"
	want := testResult(7777)
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}

	restore := func() {
		if err := os.WriteFile(s.path(key), orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(desc string, mutated []byte) {
		t.Helper()
		if err := os.WriteFile(s.path(key), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		// The contract is "never a wrong result" — a mutation may still
		// serve if it is semantically a no-op (e.g. a case flip in a JSON
		// field name, which Go's decoder matches case-insensitively), but
		// then it must decode to exactly the original result.
		got, ok := s.Get(key)
		if ok && got != want {
			t.Fatalf("%s: Get served a WRONG result:\n got %+v\nwant %+v", desc, got, want)
		}
		restore()
	}

	// Every truncation length.
	for keep := 0; keep < len(orig); keep++ {
		check(fmt.Sprintf("truncate to %d", keep), orig[:keep])
	}
	// Every single-byte bit flip.
	for off := 0; off < len(orig); off++ {
		for bit := uint(0); bit < 8; bit++ {
			mut := append([]byte(nil), orig...)
			mut[off] ^= 1 << bit
			check(fmt.Sprintf("flip byte %d bit %d", off, bit), mut)
		}
	}
	// Seeded random multi-byte garbage splices.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), orig...)
		for j := 0; j < 1+rng.Intn(8); j++ {
			mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		}
		check(fmt.Sprintf("splice %d", i), mut)
	}
	// Wrong version and wrong key stamps with recomputed checksums — an
	// adversarially consistent entry must still be rejected.
	var e entryFile
	if err := json.Unmarshal(orig, &e); err != nil {
		t.Fatal(err)
	}
	doctored := entryFile{Version: "s0-m0", Key: e.Key, Result: e.Result}
	doctored.Sum = entrySum(doctored.Version, doctored.Key, doctored.Result)
	data, _ := json.Marshal(doctored)
	check("wrong version, consistent sum", data)

	doctored = entryFile{Version: e.Version, Key: "some-other-key", Result: e.Result}
	doctored.Sum = entrySum(doctored.Version, doctored.Key, doctored.Result)
	data, _ = json.Marshal(doctored)
	check("wrong key, consistent sum", data)

	// After all that abuse: still healthy, and repairable after damage.
	if got, ok := s.Get(key); !ok || got != want {
		t.Fatalf("entry lost after fuzzing: %+v ok=%t", got, ok)
	}
	if st := s.Stats(); st.BadEntries == 0 {
		t.Fatal("no bad entries counted across the fuzz run")
	}
}

// TestScrubWhileServing: a scrub pass racing live Get/Put traffic (some
// of it over corrupt entries) must stay data-race-free and never serve a
// wrong result. Run under -race.
func TestScrubWhileServing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := fillStore(t, s, 32)
	// Corrupt a third of them.
	for i := 0; i < len(keys); i += 3 {
		path := s.path(keys[i])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(len(keys))
				if got, ok := s.Get(keys[i]); ok {
					if got.TimePS != int64(i) {
						t.Errorf("key %s: wrong result %d", keys[i], got.TimePS)
						return
					}
				} else if rng.Intn(2) == 0 {
					if err := s.Put(keys[i], testResult(int64(i))); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}
		}(w)
	}
	for pass := 0; pass < 5; pass++ {
		if _, err := s.Scrub(); err != nil {
			t.Errorf("scrub pass %d: %v", pass, err)
			break
		}
	}
	close(stop)
	wg.Wait()

	// Converged state: everything either healthy or repairable.
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if _, ok := s.Get(key); !ok {
			if err := s.Put(key, testResult(0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = rep
	if rep2, err := s.Scrub(); err != nil || rep2.Bad() > 0 {
		t.Fatalf("final scrub: %+v err=%v", rep2, err)
	}
}
