package mem

import "slices"

// HierarchyConfig describes the full memory system of the simulated machine.
// Defaults mirror the paper's Table 2.
type HierarchyConfig struct {
	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig
	// L2Latency is the unified L2 hit time in core cycles (internal module:
	// scales with the clock).
	L2Latency int
	// MemLatencyPS is the main-memory access time in picoseconds. The paper
	// specifies 100 cycles at the baseline clock and scales the cycle count
	// when the clock speeds up; expressing it as wall-clock time gives the
	// same behaviour.
	MemLatencyPS int64
	// Prefetch selects the hardware prefetcher at the L1↔L2 boundary; the
	// zero value means none (the paper's machine).
	Prefetch PrefetchConfig
}

// DefaultHierarchyConfig returns the Table 2 memory system, given the
// baseline clock period in picoseconds (used to fix the DRAM wall-clock
// latency at 100 baseline cycles).
func DefaultHierarchyConfig(baselinePeriodPS int64) HierarchyConfig {
	return HierarchyConfig{
		L1I: CacheConfig{
			Name: "l1i", SizeBytes: 64 << 10, Ways: 2, LineBytes: 32,
			HitLatency: 2, Ports: 1,
		},
		L1D: CacheConfig{
			Name: "l1d", SizeBytes: 64 << 10, Ways: 4, LineBytes: 32,
			HitLatency: 2, Ports: 2,
		},
		L2: CacheConfig{
			Name: "l2", SizeBytes: 512 << 10, Ways: 4, LineBytes: 64,
			HitLatency: 10, Ports: 1,
		},
		L2Latency:    10,
		MemLatencyPS: 100 * baselinePeriodPS,
	}
}

// Geometry returns the configuration with every latency and port count
// zeroed, keeping cache sizes, ways, line sizes and the prefetcher: the
// part that decides which lines the hierarchy holds and how its prefetcher
// trains. Latencies only price accesses, so two hierarchies of equal
// geometry fed the same accesses end in the same state.
func (c HierarchyConfig) Geometry() HierarchyConfig {
	c.L1I, c.L1D, c.L2 = c.L1I.Geometry(), c.L1D.Geometry(), c.L2.Geometry()
	c.L2Latency, c.MemLatencyPS = 0, 0
	return c
}

// SameCaches reports whether c and o have caches of equal geometry, so a
// hierarchy built from one can be reset to the other (see Reset).
func (c HierarchyConfig) SameCaches(o HierarchyConfig) bool {
	return c.L1I.Geometry() == o.L1I.Geometry() && c.L1D.Geometry() == o.L1D.Geometry() &&
		c.L2.Geometry() == o.L2.Geometry()
}

// DemandStats aggregates the demand data-access stream (loads and stores
// through L1D), independent of any prefetcher.
type DemandStats struct {
	DataAccesses uint64
	DataCycles   uint64 // sum of demand data-access latencies, in accessor cycles
	L2Lookups    uint64 // demand data accesses that missed L1D
	L2Hits       uint64
}

// AvgDataCycles is the average demand data-access latency in cycles.
func (s DemandStats) AvgDataCycles() float64 {
	if s.DataAccesses == 0 {
		return 0
	}
	return float64(s.DataCycles) / float64(s.DataAccesses)
}

// L2HitRate is the demand (non-prefetch) L2 hit rate.
func (s DemandStats) L2HitRate() float64 {
	if s.L2Lookups == 0 {
		return 0
	}
	return float64(s.L2Hits) / float64(s.L2Lookups)
}

// PrefetchStats accounts for the prefetcher's work.
type PrefetchStats struct {
	Trains       uint64 // demand L1D misses observed by the prefetcher
	Issued       uint64 // prefetch fills started (post filtering)
	Useful       uint64 // demand L2 hits on a line a prefetch installed
	Late         uint64 // demand misses that caught their fill in flight
	DemandMisses uint64 // demand L2 misses (includes Late)
}

// Accuracy is the fraction of issued prefetches a demand access consumed
// (timely or late).
func (s PrefetchStats) Accuracy() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.Useful+s.Late) / float64(s.Issued)
}

// Coverage is the fraction of would-be demand L2 misses the prefetcher
// fully hid (late fills count as misses).
func (s PrefetchStats) Coverage() float64 {
	if s.Useful+s.DemandMisses == 0 {
		return 0
	}
	return float64(s.Useful) / float64(s.Useful+s.DemandMisses)
}

const (
	// prefetchDelay models the fill pipe: a prefetch issued at demand
	// access n is resident from access n+prefetchDelay; demanded sooner,
	// it is late and only hides half the memory penalty.
	prefetchDelay = 4
	// maxPendingPrefetch bounds the in-flight prefetch queue (an MSHR
	// file); further candidates are dropped, not queued.
	maxPendingPrefetch = 64
)

type pendingPrefetch struct {
	line  uint64
	ready uint64 // DemandStats.DataAccesses stamp when the fill lands
}

// Hierarchy glues the cache levels together and converts miss chains into
// access latencies for the timing cores.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	cfg HierarchyConfig

	// Prefetch machinery (nil / empty when cfg.Prefetch is off).
	pf         Prefetcher
	pending    []pendingPrefetch   // FIFO, ready ascending
	pfResident map[uint64]struct{} // prefetched L2 lines not yet demanded
	pfBuf      []uint64

	demand  DemandStats
	pfStats PrefetchStats
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{
		L1I: NewCache(cfg.L1I),
		L1D: NewCache(cfg.L1D),
		L2:  NewCache(cfg.L2),
		cfg: cfg,
	}
	h.setPrefetcher(cfg.Prefetch)
	return h
}

// setPrefetcher builds the prefetcher pc selects, or none.
func (h *Hierarchy) setPrefetcher(pc PrefetchConfig) {
	h.pf, h.pfResident = nil, nil
	if pc.Kind != "" && pc.Kind != PFNone {
		h.pf = newPrefetcher(pc)
		h.pfResident = make(map[uint64]struct{})
	}
}

// PrefetchStats returns the prefetch counters (zero when no prefetcher).
func (h *Hierarchy) PrefetchStats() PrefetchStats { return h.pfStats }

// DemandStats returns the demand data-access counters.
func (h *Hierarchy) DemandStats() DemandStats { return h.demand }

// Image is a hierarchy's state: its caches' tags, LRU state and
// statistics, stored sparsely, and the prefetcher's training and in-flight
// state. A warm template keeps an image instead of a whole hierarchy, and
// Restore copies it into each run's hierarchy.
type Image struct {
	geom       HierarchyConfig // Geometry()
	caches     [3]cacheImage   // L1I, L1D, L2
	pf         Prefetcher      // a copy; nil without a prefetcher
	pending    []pendingPrefetch
	pfResident []uint64
	demand     DemandStats
	pfStats    PrefetchStats
}

// Image returns h's state. Later accesses to h do not change it.
func (h *Hierarchy) Image() *Image {
	img := &Image{
		geom:    h.cfg.Geometry(),
		caches:  [3]cacheImage{h.L1I.image(), h.L1D.image(), h.L2.image()},
		pending: slices.Clone(h.pending),
		demand:  h.demand,
		pfStats: h.pfStats,
	}
	if h.pf != nil {
		img.pf = newPrefetcher(h.cfg.Prefetch)
		img.pf.CopyStateFrom(h.pf)
		for line := range h.pfResident {
			img.pfResident = append(img.pfResident, line)
		}
	}
	return img
}

// Restore replaces h's state with img's, taken from a hierarchy of the
// same geometry (its latencies may differ): afterwards h continues exactly
// like that hierarchy would have. It panics on a geometry mismatch (caller
// bug).
func (h *Hierarchy) Restore(img *Image) {
	if h.cfg.Geometry() != img.geom {
		panic("mem: hierarchy Restore of an image of another geometry")
	}
	h.L1I.restore(&img.caches[0])
	h.L1D.restore(&img.caches[1])
	h.L2.restore(&img.caches[2])
	if h.pf != nil {
		h.pf.CopyStateFrom(img.pf)
		h.pending = append(h.pending[:0], img.pending...)
		clear(h.pfResident)
		for _, line := range img.pfResident {
			h.pfResident[line] = struct{}{}
		}
	}
	h.demand = img.demand
	h.pfStats = img.pfStats
}

// Reset returns the hierarchy to the state NewHierarchy(cfg) builds, with
// empty caches, an untrained prefetcher and zero statistics. The caches
// keep their storage: cfg's caches must have the geometry of h's (their
// latencies may differ), or Reset panics (caller bug). The prefetcher is
// cleared in place, or replaced when cfg selects another one.
func (h *Hierarchy) Reset(cfg HierarchyConfig) {
	h.L1I.Reset(cfg.L1I)
	h.L1D.Reset(cfg.L1D)
	h.L2.Reset(cfg.L2)
	if cfg.Prefetch != h.cfg.Prefetch {
		h.setPrefetcher(cfg.Prefetch)
	} else if h.pf != nil {
		h.pf.Reset()
	}
	h.cfg = cfg
	h.pending = h.pending[:0]
	clear(h.pfResident)
	h.pfBuf = h.pfBuf[:0]
	h.demand = DemandStats{}
	h.pfStats = PrefetchStats{}
}

// AccessKind selects the L1 cache used for an access.
type AccessKind int

// Access kinds.
const (
	AccessFetch AccessKind = iota // instruction fetch through L1I
	AccessLoad                    // data read through L1D
	AccessStore                   // data write through L1D
)

// Latency describes the outcome of one memory access.
type Latency struct {
	// Cycles is the total access latency in cycles of the requesting clock
	// domain (whose period is passed to Access).
	Cycles int
	L1Hit  bool
	L2Hit  bool
}

// Access simulates one access by the instruction at pc and returns its
// latency expressed in cycles of a clock with the given period
// (picoseconds per cycle). pc feeds the PC-indexed prefetcher; fetches
// pass their own address.
func (h *Hierarchy) Access(kind AccessKind, pc, addr uint64, periodPS int64) Latency {
	l1 := h.L1I
	write := false
	data := false
	switch kind {
	case AccessLoad:
		l1, data = h.L1D, true
	case AccessStore:
		l1, data = h.L1D, true
		write = true
	}
	if data {
		h.demand.DataAccesses++
		if h.pf != nil {
			h.drainPrefetches()
		}
	}
	lat := Latency{Cycles: l1.Config().HitLatency}
	res := l1.Access(addr, write)
	if res.Hit {
		lat.L1Hit = true
		return h.finish(data, lat)
	}
	if res.Writeback {
		// Dirty victim goes to L2; modelled as an L2 write for statistics,
		// latency hidden by the writeback buffer.
		h.l2Access(res.EvictedAddr, true)
	}
	lat.Cycles += h.cfg.L2Latency
	if data {
		h.demand.L2Lookups++
	}
	if periodPS <= 0 {
		periodPS = 1
	}
	memCycles := int((h.cfg.MemLatencyPS + periodPS - 1) / periodPS)
	line := addr &^ uint64(h.cfg.L2.LineBytes-1)
	if data && h.pf != nil && h.dropPending(line) {
		// Late prefetch: the fill is in flight; it completes now and the
		// demand pays half the memory penalty for the remaining overlap.
		h.pfStats.Late++
		h.pfStats.DemandMisses++
		h.l2Access(addr, false)
		lat.Cycles += memCycles / 2
		h.train(pc, addr, line)
		return h.finish(data, lat)
	}
	l2res := h.l2Access(addr, false)
	if l2res.Hit {
		lat.L2Hit = true
		if data {
			h.demand.L2Hits++
			if h.pf != nil {
				if _, ok := h.pfResident[line]; ok {
					delete(h.pfResident, line)
					h.pfStats.Useful++
				}
				h.train(pc, addr, line)
			}
		}
		return h.finish(data, lat)
	}
	lat.Cycles += memCycles
	if data && h.pf != nil {
		h.pfStats.DemandMisses++
		h.train(pc, addr, line)
	}
	return h.finish(data, lat)
}

func (h *Hierarchy) finish(data bool, lat Latency) Latency {
	if data {
		h.demand.DataCycles += uint64(lat.Cycles)
	}
	return lat
}

// l2Access wraps L2 accesses so lines evicted for any reason (demand
// fills, writebacks, prefetch fills) leave the prefetched-resident set.
func (h *Hierarchy) l2Access(addr uint64, write bool) AccessResult {
	res := h.L2.Access(addr, write)
	if res.Evicted {
		delete(h.pfResident, res.EvictedAddr)
	}
	return res
}

// drainPrefetches completes in-flight prefetch fills whose delay elapsed.
func (h *Hierarchy) drainPrefetches() {
	n := 0
	for _, p := range h.pending {
		if p.ready > h.demand.DataAccesses {
			break
		}
		if !h.l2Access(p.line, false).Hit {
			// The fill actually installed the line; track its first use.
			h.pfResident[p.line] = struct{}{}
		}
		n++
	}
	if n > 0 {
		h.pending = h.pending[:copy(h.pending, h.pending[n:])]
	}
}

// train feeds one demand L1D miss to the prefetcher and queues the
// candidate lines it returns, filtering lines already resident or in
// flight.
func (h *Hierarchy) train(pc, addr, demandLine uint64) {
	h.pfStats.Trains++
	h.pfBuf = h.pf.Observe(pc, addr, h.pfBuf[:0])
	for _, a := range h.pfBuf {
		line := a &^ uint64(h.cfg.L2.LineBytes-1)
		if line == demandLine || h.L2.Probe(line) || h.isPending(line) {
			continue
		}
		if len(h.pending) >= maxPendingPrefetch {
			break
		}
		h.pending = append(h.pending, pendingPrefetch{line: line, ready: h.demand.DataAccesses + prefetchDelay})
		h.pfStats.Issued++
	}
}

func (h *Hierarchy) isPending(line uint64) bool {
	for _, p := range h.pending {
		if p.line == line {
			return true
		}
	}
	return false
}

// dropPending removes line from the in-flight queue, reporting whether it
// was there.
func (h *Hierarchy) dropPending(line uint64) bool {
	for i, p := range h.pending {
		if p.line == line {
			h.pending = append(h.pending[:i], h.pending[i+1:]...)
			return true
		}
	}
	return false
}

// ResetStats clears all cache, demand and prefetch statistics (not
// contents or training state).
func (h *Hierarchy) ResetStats() {
	h.L1I.Stats = CacheStats{}
	h.L1D.Stats = CacheStats{}
	h.L2.Stats = CacheStats{}
	h.demand = DemandStats{}
	h.pfStats = PrefetchStats{}
}
