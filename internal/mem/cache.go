package mem

import "fmt"

// CacheConfig sizes one cache.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency int // cycles, in the clock domain of the accessor
	Ports      int // simultaneous accesses per cycle (enforced by the core)
}

// Validate reports configuration errors.
func (c CacheConfig) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("mem: %s: sizes must be positive", c.Name)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: %s: line size %d is not a power of two", c.Name, c.LineBytes)
	case c.LineBytes < minLineBytes:
		return fmt.Errorf("mem: %s: line size %d is below %d bytes", c.Name, c.LineBytes, minLineBytes)
	case c.SizeBytes%(c.Ways*c.LineBytes) != 0:
		return fmt.Errorf("mem: %s: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

// Geometry returns the configuration with its timing fields (HitLatency,
// Ports) zeroed: the part that decides which lines a cache holds. Two
// caches of equal geometry fed the same accesses hold the same state.
func (c CacheConfig) Geometry() CacheConfig {
	c.HitLatency, c.Ports = 0, 0
	return c
}

// CacheStats accumulates access counts for performance and power reporting.
type CacheStats struct {
	Reads      uint64
	Writes     uint64
	ReadMiss   uint64
	WriteMiss  uint64
	Writebacks uint64
}

// Accesses is the total number of accesses.
func (s CacheStats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses is the total number of misses.
func (s CacheStats) Misses() uint64 { return s.ReadMiss + s.WriteMiss }

// MissRate returns misses/accesses, or 0 when idle.
func (s CacheStats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses()) / float64(a)
	}
	return 0
}

// A cache line is 16 bytes: the tag word, with the valid and dirty bits in
// its top two bits, and the LRU stamp. Tags never reach those bits: a tag
// is an address shifted right by at least log2(minLineBytes) bits.
type cacheLine struct {
	tag uint64 // lineValid | lineDirty | tag
	lru uint64 // last-use stamp; larger = more recent
}

const (
	lineValid uint64 = 1 << 63
	lineDirty uint64 = 1 << 62
	// minLineBytes keeps two free bits above every tag.
	minLineBytes = 4
)

// Cache is a set-associative, write-back, write-allocate cache model with
// true LRU replacement. It models hit/miss behaviour and replacement only;
// data payloads live in the backing Memory.
type Cache struct {
	cfg      CacheConfig
	lines    []cacheLine // set-major: set s is lines[s*ways : (s+1)*ways]
	ways     int
	setMask  uint64
	setBits  uint
	lineBits uint
	clock    uint64
	Stats    CacheStats
}

// NewCache builds a cache; it panics on invalid configuration (caller bug).
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	return &Cache{
		cfg:      cfg,
		lines:    make([]cacheLine, numSets*cfg.Ways),
		ways:     cfg.Ways,
		setMask:  uint64(numSets - 1),
		setBits:  log2(numSets),
		lineBits: log2(cfg.LineBytes),
	}
}

// log2 returns the exponent of a power of two.
func log2(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// cacheImage is a cache's tag/LRU state and statistics, stored sparsely:
// the lines that are not empty, with their positions. A warmed template
// cache holds a few thousand of its tens of thousands of lines, so an
// image is a fraction of the cache's size and restores for less than a
// copy of the whole line array.
type cacheImage struct {
	geom  CacheConfig // Geometry()
	at    []uint32    // positions in lines of the non-empty lines
	lines []cacheLine
	clock uint64
	stats CacheStats
}

// image returns c's state.
func (c *Cache) image() cacheImage {
	img := cacheImage{geom: c.cfg.Geometry(), clock: c.clock, stats: c.Stats}
	for i, l := range c.lines {
		if l != (cacheLine{}) {
			img.at = append(img.at, uint32(i))
			img.lines = append(img.lines, l)
		}
	}
	return img
}

// restore replaces c's state with img's: afterwards c holds the lines,
// LRU clock and statistics of the cache img was taken from. The timing
// fields of the two caches may differ; a geometry mismatch panics (caller
// bug).
func (c *Cache) restore(img *cacheImage) {
	if c.cfg.Geometry() != img.geom {
		panic(fmt.Sprintf("mem: %s: restore of an image of another geometry", c.cfg.Name))
	}
	clear(c.lines)
	for k, i := range img.at {
		c.lines[i] = img.lines[k]
	}
	c.clock = img.clock
	c.Stats = img.stats
}

// Reset empties the cache and clears its statistics, leaving it as
// NewCache(cfg) builds it but keeping its line storage. cfg must have the
// cache's geometry; its timing fields may differ. It panics on a geometry
// mismatch (caller bug).
func (c *Cache) Reset(cfg CacheConfig) {
	if c.cfg.Geometry() != cfg.Geometry() {
		panic(fmt.Sprintf("mem: %s: Reset with mismatched geometry", c.cfg.Name))
	}
	c.cfg = cfg
	clear(c.lines)
	c.clock = 0
	c.Stats = CacheStats{}
}

// set returns the lines of one set.
func (c *Cache) set(set uint64) []cacheLine {
	base := int(set) * c.ways
	return c.lines[base : base+c.ways : base+c.ways]
}

// index splits addr into its set and its tag word as a valid line stores
// it (lineValid set, clean).
func (c *Cache) index(addr uint64) (set, key uint64) {
	block := addr >> c.lineBits
	return block & c.setMask, block>>c.setBits | lineValid
}

// AccessResult describes one cache access.
type AccessResult struct {
	Hit bool
	// Writeback is true when the access evicted a dirty line.
	Writeback bool
	// EvictedAddr is the base address of the evicted line, valid when a
	// valid line was replaced.
	EvictedAddr uint64
	Evicted     bool
}

// Access performs one read (write=false) or write (write=true) at addr,
// updating replacement state and statistics. Misses allocate.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.clock++
	set, key := c.index(addr)
	lines := c.set(set)
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	for i := range lines {
		if lines[i].tag&^lineDirty == key {
			lines[i].lru = c.clock
			if write {
				lines[i].tag |= lineDirty
			}
			return AccessResult{Hit: true}
		}
	}
	if write {
		c.Stats.WriteMiss++
	} else {
		c.Stats.ReadMiss++
	}
	// Choose victim: first invalid, else least recently used.
	victim := 0
	for i := range lines {
		if lines[i].tag&lineValid == 0 {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	res := AccessResult{}
	if old := lines[victim].tag; old&lineValid != 0 {
		res.Evicted = true
		res.EvictedAddr = c.evictedAddr(old&^(lineValid|lineDirty), set)
		if old&lineDirty != 0 {
			res.Writeback = true
			c.Stats.Writebacks++
		}
	}
	if write {
		key |= lineDirty
	}
	lines[victim] = cacheLine{tag: key, lru: c.clock}
	return res
}

func (c *Cache) evictedAddr(tag, set uint64) uint64 {
	return (tag<<c.setBits | set) << c.lineBits
}

// Probe reports whether addr currently hits, without changing any state.
func (c *Cache) Probe(addr uint64) bool {
	set, key := c.index(addr)
	for _, l := range c.set(set) {
		if l.tag&^lineDirty == key {
			return true
		}
	}
	return false
}

// Flush invalidates every line (used at workload boundaries in tests).
func (c *Cache) Flush() { clear(c.lines) }
