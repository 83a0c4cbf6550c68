package trace

import (
	"fmt"
	"sync"

	"flywheel/internal/emu"
)

// Policy tunes the process-wide trace cache.
type Policy struct {
	// Disabled turns the cache off: every acquisition is a bypass and runs
	// on live functional emulation, the pre-cache behavior.
	Disabled bool
	// MaxBytes caps the resident encoded size of all recordings. Zero or
	// negative means the DefaultMaxBytes cap. When a new recording would
	// exceed the cap, completed recordings are evicted least-recently-used
	// first; if the cap still cannot be met, the recording is dropped and
	// its key is served by live emulation from then on (graceful fallback,
	// never an error).
	MaxBytes int64
}

// DefaultMaxBytes is the default resident cap (256 MiB — about 480M
// recorded instructions of the paper kernels at 0.55 B each, far beyond a
// full-length sweep's needs).
const DefaultMaxBytes int64 = 256 << 20

func (p Policy) maxBytes() int64 {
	if p.MaxBytes <= 0 {
		return DefaultMaxBytes
	}
	return p.MaxBytes
}

// Stats counts cache traffic.
type Stats struct {
	// Hits are replays served from a complete recording. Misses are
	// recordings started — the runs that executed the functional emulator
	// and taped it. Bypasses ran live without recording: the cache was
	// disabled, the key's recording was still in flight, or the memory cap
	// blacklisted the key.
	Hits, Misses, Bypasses uint64
	// Evictions counts recordings dropped by the memory cap.
	Evictions uint64
	// ResidentBytes is the current encoded footprint; Entries the number of
	// resident recordings.
	ResidentBytes int64
	Entries       int
}

// String renders the counters as one fixed-shape log line (the CLIs'
// -storestats flags print it).
func (s Stats) String() string {
	return fmt.Sprintf("trace cache: %d replays, %d recordings, %d bypasses, %d evictions; %d recordings resident, %d bytes",
		s.Hits, s.Misses, s.Bypasses, s.Evictions, s.Entries, s.ResidentBytes)
}

// Cache is the per-process recording cache, keyed by workload identity.
// The zero value is not usable; use NewCache.
type Cache struct {
	mu      sync.Mutex
	policy  Policy
	entries map[string]*cacheEntry
	bytes   int64
	clock   uint64          // LRU tick
	nocache map[string]bool // keys vetoed by the memory cap
	stats   Stats
}

type cacheEntry struct {
	rec  *Recording
	used uint64 // LRU stamp
}

// NewCache returns an empty cache under the given policy.
func NewCache(p Policy) *Cache {
	return &Cache{policy: p, entries: map[string]*cacheEntry{}, nocache: map[string]bool{}}
}

// SetPolicy replaces the policy. Lowering the cap evicts immediately;
// any change clears the cap blacklist, so keys vetoed under an old cap get
// another chance instead of bypassing for the process lifetime.
func (c *Cache) SetPolicy(p Policy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p != c.policy {
		c.nocache = map[string]bool{}
	}
	c.policy = p
	c.evictToLocked(p.maxBytes())
}

// Policy returns the current policy.
func (c *Cache) Policy() Policy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policy
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.ResidentBytes = c.bytes
	s.Entries = len(c.entries)
	return s
}

// Reset drops every recording and zeroes the counters (tests, benchmarks).
// Readers keep their references and finish unaffected; a recording in
// flight finishes outside the cache and its bytes are not counted.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*cacheEntry{}
	c.nocache = map[string]bool{}
	c.bytes = 0
	c.clock = 0
	c.stats = Stats{}
}

// Grant is the outcome of an acquisition. Exactly one field is set for a
// cache-mediated run; both nil means bypass (run live, unrecorded).
type Grant struct {
	// Record is a fresh in-progress recording; the caller wraps its live
	// stream in NewRecorder(Record, stream) and must call Finish or Abort
	// on the recorder when the run ends.
	Record *Recording
	// Replay is a reader of a complete recording serving the whole run.
	Replay *Reader
}

// Acquire decides how a run of the keyed workload with the given budget
// (0 = run to completion) gets its instruction stream. startSeq is the
// dynamic sequence number at the warm point. Only a complete recording
// replays: while the key's recording is in flight, every other run of it
// bypasses to live emulation. The fourth parameter is ignored.
func (c *Cache) Acquire(key string, startSeq, budget uint64, _ func(skip uint64) (*emu.Stream, error)) Grant {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.policy.Disabled || c.nocache[key] {
		c.stats.Bypasses++
		return Grant{}
	}
	c.clock++
	if e, ok := c.entries[key]; ok {
		if e.rec.usableFor(budget) {
			e.used = c.clock
			c.stats.Hits++
			return Grant{Replay: NewReader(e.rec, budget)}
		}
		if e.rec.state() == stateRecording {
			c.stats.Bypasses++
			return Grant{}
		}
		// Complete but too short, or failed: replace it with a recording
		// at this budget. Readers of the old tape are unaffected.
		c.dropLocked(key)
	}
	rec := newRecording(startSeq, budget)
	rec.onPublish = func(delta int64) bool { return c.addBytes(key, rec, delta) }
	c.insertLocked(key, rec)
	c.stats.Misses++
	return Grant{Record: rec}
}

// FinishRecorder completes a recording run: Finish on success, Abort on
// error.
func (c *Cache) FinishRecorder(t *Recorder, runErr error) {
	if runErr != nil {
		t.Abort()
		return
	}
	t.Finish()
}

// insertLocked adds a recording under key, accounting its current bytes.
func (c *Cache) insertLocked(key string, rec *Recording) {
	c.entries[key] = &cacheEntry{rec: rec, used: c.clock}
	c.bytes += rec.Bytes()
	c.evictToLocked(c.policy.maxBytes())
}

// dropLocked removes a key, returning its bytes to the budget.
func (c *Cache) dropLocked(key string) {
	if e, ok := c.entries[key]; ok {
		c.bytes -= e.rec.Bytes()
		delete(c.entries, key)
	}
}

// addBytes is the recorder's publish hook: account the delta, evicting
// completed recordings to stay under the cap. It returns false — veto —
// when the cap cannot be met even after eviction; the caller then aborts
// the recording and the key is blacklisted so later runs bypass straight
// to live emulation instead of re-recording and re-aborting. A recording
// the cache no longer holds (Reset dropped it) is neither counted nor
// vetoed. Lock order is always cache.mu → Recording.mu: the hook runs
// before the recording takes its own lock.
func (c *Cache) addBytes(key string, rec *Recording, delta int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; !ok || e.rec != rec {
		return true
	}
	max := c.policy.maxBytes()
	c.bytes += delta
	if c.bytes <= max {
		return true
	}
	c.evictToLocked(max)
	if c.bytes <= max {
		return true
	}
	// Still over: this recording alone exceeds the cap. Undo the delta
	// (the vetoed chunk is never published), drop the entry's published
	// prefix, and blacklist the key.
	c.bytes -= delta
	c.dropLocked(key)
	c.nocache[key] = true
	return false
}

// evictToLocked drops completed recordings, least recently used first,
// until resident bytes fit in max.
func (c *Cache) evictToLocked(max int64) {
	for c.bytes > max {
		var victim string
		var oldest uint64
		found := false
		for k, e := range c.entries {
			if e.rec.state() == stateRecording {
				continue // never evict an in-flight recording
			}
			if !found || e.used < oldest {
				victim, oldest, found = k, e.used, true
			}
		}
		if !found {
			return
		}
		c.dropLocked(victim)
		c.stats.Evictions++
	}
}
