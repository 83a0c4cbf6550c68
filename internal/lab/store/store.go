// Package store persists simulation results content-addressed on disk, so
// the lab's memoization survives process death: a sweep re-run in a new
// process — or served by a resident labd — replays every previously
// computed configuration from disk instead of re-simulating it.
//
// Layout: each entry is one JSON file under
//
//	<dir>/<version>/<hh>/<sha256(version "\n" key)>.json
//
// where version stamps both the store schema and the simulator's result
// semantics (sim.ModelVersion), hh is the first address byte in hex (a
// two-level fan-out so directories stay small), and key is the lab's
// collision-free canonical job encoding. Bumping either version component
// changes every address, orphaning stale entries rather than serving them.
// Nothing else under <dir> is read: other directories (quarantine/, or a
// traces/ directory left by older builds) are ignored.
//
// Writes are atomic: the entry is written to a temp file in the store root
// and renamed into place, so a crash mid-write leaves at most a temp file,
// never a truncated entry. Reads are corruption-tolerant: an entry that
// fails to open, parse, or match its stamped version and key is treated as
// a miss and recomputed (and overwritten by the following Put).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"flywheel/internal/sim"
)

// schemaVersion is the on-disk format version: the entry JSON shape and
// the addressing scheme. Bump on incompatible layout changes.
// v2 added the per-entry payload checksum (entryFile.Sum).
const schemaVersion = 2

// Version is the combined stamp written into every entry and folded into
// every address: store schema + simulator model version.
func Version() string {
	return fmt.Sprintf("s%d-m%d", schemaVersion, sim.ModelVersion)
}

// entryFile is the persisted JSON document.
type entryFile struct {
	// Version and Key are re-checked on read: an entry whose stamp does
	// not match the address it was found under is ignored.
	Version string `json:"version"`
	Key     string `json:"key"`
	// Sum is sha256(version "\n" key "\n" result-bytes): an end-to-end
	// integrity check over the payload. The address only authenticates
	// (version, key); without Sum, a flipped bit inside the result JSON
	// would parse cleanly and serve a silently wrong number forever.
	Sum string `json:"sum"`
	// Result stays raw so the checksum is verified over the exact stored
	// bytes, immune to re-marshaling drift.
	Result json.RawMessage `json:"result"`
}

// entrySum computes the integrity checksum an entry must carry.
func entrySum(version, key string, result []byte) string {
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{'\n'})
	h.Write([]byte(key))
	h.Write([]byte{'\n'})
	h.Write(result)
	return hex.EncodeToString(h.Sum(nil))
}

// Stats counts store traffic since Open.
type Stats struct {
	// Hits / Misses count Get outcomes; BadEntries counts reads that found
	// a file but rejected it (corrupt, wrong version, wrong key) — those
	// are also misses. Puts counts successful writes.
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	BadEntries uint64 `json:"bad_entries"`
	Puts       uint64 `json:"puts"`
}

// Store is an on-disk result cache. It is safe for concurrent use within a
// process, and safe across processes sharing one directory: entries are
// immutable once renamed into place, and concurrent Puts of the same key
// write byte-identical content.
type Store struct {
	dir     string
	version string

	mu    sync.Mutex
	stats Stats

	manifestMu sync.Mutex // serializes quarantine-manifest appends
}

// ShardDir returns the store root for one worker of a sharded cluster:
// <root>/shard-<n>. A labd worker opened over a shard directory owns it
// exclusively, so N workers can share one filesystem without ever
// contending on a file. The coordinator's consistent hashing keeps a given
// job key on the same shard across runs, so each shard's store stays as
// warm as a single-process store would.
func ShardDir(root string, shard int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", shard))
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, version: Version()}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path returns the entry file path for a key.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(s.version + "\n" + key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, s.version, name[:2], name+".json")
}

// Get returns the stored result for key, if a valid entry exists.
func (s *Store) Get(key string) (sim.Result, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return sim.Result{}, false
	}
	res, err := decodeEntry(data, s.version, key)
	if err != nil {
		s.count(func(st *Stats) { st.Misses++; st.BadEntries++ })
		return sim.Result{}, false
	}
	s.count(func(st *Stats) { st.Hits++ })
	return res, true
}

// decodeEntry validates one entry file body against the version and key
// it was addressed by — parse, stamp match, checksum, payload decode —
// and returns the result or the first reason it cannot be trusted.
func decodeEntry(data []byte, version, key string) (sim.Result, error) {
	var e entryFile
	if err := json.Unmarshal(data, &e); err != nil {
		return sim.Result{}, fmt.Errorf("unparseable: %w", err)
	}
	if e.Version != version {
		return sim.Result{}, fmt.Errorf("version %q, want %q", e.Version, version)
	}
	if e.Key != key {
		return sim.Result{}, fmt.Errorf("stamped for another key")
	}
	if e.Sum != entrySum(version, key, e.Result) {
		return sim.Result{}, fmt.Errorf("checksum mismatch")
	}
	var res sim.Result
	if err := json.Unmarshal(e.Result, &res); err != nil {
		return sim.Result{}, fmt.Errorf("bad result payload: %w", err)
	}
	return res, nil
}

// Put persists the result for key atomically. An existing entry is
// replaced; a crash mid-write leaves the old entry (or none) intact.
func (s *Store) Put(key string, res sim.Result) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: encode %q: %w", key, err)
	}
	data, err := json.Marshal(entryFile{
		Version: s.version, Key: key,
		Sum: entrySum(s.version, key, raw), Result: raw,
	})
	if err != nil {
		return fmt.Errorf("store: encode %q: %w", key, err)
	}
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %q: %w", key, firstErr(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.count(func(st *Stats) { st.Puts++ })
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Size walks the store and reports the number of entry files for the
// current version and their total bytes. Entries stamped with other
// versions are not counted (they are unreachable anyway).
func (s *Store) Size() (entries int, bytes int64) {
	root := filepath.Join(s.dir, s.version)
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		if info, err := d.Info(); err == nil {
			entries++
			bytes += info.Size()
		}
		return nil
	})
	return entries, bytes
}
