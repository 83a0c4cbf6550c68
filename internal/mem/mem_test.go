package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteWidths(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 8, 0x1122334455667788)
	if got := m.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Errorf("read64 = %#x", got)
	}
	if got := m.Read(0x1000, 4); got != 0x55667788 {
		t.Errorf("read32 = %#x", got)
	}
	if got := m.Read(0x1004, 4); got != 0x11223344 {
		t.Errorf("read32 hi = %#x", got)
	}
	if got := m.Read(0x1000, 1); got != 0x88 {
		t.Errorf("read8 = %#x", got)
	}
	m.Write(0x1002, 2, 0xBEEF)
	if got := m.Read(0x1000, 8); got != 0x11223344beef7788 {
		t.Errorf("after write16 = %#x", got)
	}
}

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	if got := m.Read(0xdeadbeef000, 8); got != 0 {
		t.Errorf("untouched memory = %#x, want 0", got)
	}
	if m.PageCount() != 0 {
		t.Errorf("read allocated %d pages", m.PageCount())
	}
}

func TestMemoryPageCrossing(t *testing.T) {
	m := NewMemory()
	addr := uint64(0x1FFC) // crosses the 0x1000..0x1FFF page boundary at +4
	m.Write(addr, 8, 0xAABBCCDDEEFF0011)
	if got := m.Read(addr, 8); got != 0xAABBCCDDEEFF0011 {
		t.Errorf("page-crossing read = %#x", got)
	}
	if m.PageCount() != 2 {
		t.Errorf("pages touched = %d, want 2", m.PageCount())
	}
}

func TestMemoryBytesRoundTrip(t *testing.T) {
	m := NewMemory()
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	m.WriteBytes(0xFFF8, data) // crosses a page
	if got := m.ReadBytes(0xFFF8, len(data)); string(got) != string(data) {
		t.Errorf("ReadBytes = %v, want %v", got, data)
	}
}

func TestMemoryRandomizedAgainstMap(t *testing.T) {
	m := NewMemory()
	ref := map[uint64]byte{}
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		addr := uint64(r.Intn(1 << 20))
		size := []int{1, 2, 4, 8}[r.Intn(4)]
		if r.Intn(2) == 0 {
			v := r.Uint64()
			m.Write(addr, size, v)
			for i := 0; i < size; i++ {
				ref[addr+uint64(i)] = byte(v >> (8 * i))
			}
			return true
		}
		var want uint64
		for i := 0; i < size; i++ {
			want |= uint64(ref[addr+uint64(i)]) << (8 * i)
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{Name: "c", SizeBytes: 1024, Ways: 2, LineBytes: 32}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{Name: "neg", SizeBytes: -1, Ways: 2, LineBytes: 32},
		{Name: "line", SizeBytes: 1024, Ways: 2, LineBytes: 24},
		{Name: "short", SizeBytes: 64, Ways: 2, LineBytes: 2},
		{Name: "div", SizeBytes: 1000, Ways: 2, LineBytes: 32},
		{Name: "sets", SizeBytes: 3 * 64, Ways: 1, LineBytes: 32},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted, want error", c.Name)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 256, Ways: 2, LineBytes: 32})
	// 4 sets, 2 ways, 32-byte lines.
	if res := c.Access(0, false); res.Hit {
		t.Error("cold access hit")
	}
	if res := c.Access(4, false); !res.Hit {
		t.Error("same-line access missed")
	}
	if res := c.Access(31, false); !res.Hit {
		t.Error("line-end access missed")
	}
	if res := c.Access(32, false); res.Hit {
		t.Error("next-line access hit")
	}
	if got := c.Stats.Reads; got != 4 {
		t.Errorf("reads = %d, want 4", got)
	}
	if got := c.Stats.ReadMiss; got != 2 {
		t.Errorf("read misses = %d, want 2", got)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// 1 set (64 bytes, 2 ways, 32-byte lines): addresses 0, 64, 128 conflict.
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 64, Ways: 2, LineBytes: 32})
	c.Access(0, false)   // miss, way 0
	c.Access(64, false)  // miss, way 1
	c.Access(0, false)   // hit, refreshes 0
	c.Access(128, false) // miss, evicts 64 (LRU)
	if !c.Probe(0) {
		t.Error("line 0 evicted, want kept (was MRU)")
	}
	if c.Probe(64) {
		t.Error("line 64 kept, want evicted (was LRU)")
	}
	if !c.Probe(128) {
		t.Error("line 128 missing after allocation")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 32, Ways: 1, LineBytes: 32})
	c.Access(0, true) // dirty
	res := c.Access(64, false)
	if !res.Writeback {
		t.Error("dirty eviction did not report writeback")
	}
	if res.EvictedAddr != 0 {
		t.Errorf("evicted addr = %#x, want 0", res.EvictedAddr)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// Clean eviction: no writeback.
	res = c.Access(128, false)
	if res.Writeback {
		t.Error("clean eviction reported writeback")
	}
	if !res.Evicted || res.EvictedAddr != 64 {
		t.Errorf("eviction = %+v, want evicted addr 64", res)
	}
}

func TestCacheProbeDoesNotTouch(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 64, Ways: 2, LineBytes: 32})
	c.Access(0, false)
	c.Access(64, false)
	// Probing 0 must not refresh it.
	c.Probe(0)
	c.Access(128, false) // should evict 0 (LRU despite probe)
	if c.Probe(0) {
		t.Error("probe refreshed LRU state")
	}
	reads := c.Stats.Reads
	c.Probe(64)
	if c.Stats.Reads != reads {
		t.Error("probe counted as access")
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 64, Ways: 2, LineBytes: 32})
	c.Access(0, false)
	c.Flush()
	if c.Probe(0) {
		t.Error("line survived flush")
	}
}

// TestCacheMatchesReferenceLRU drives the packed cache and a plain
// per-set LRU list with the same random accesses — including addresses
// whose top bits are set, where the tag word also holds the valid and
// dirty bits — and requires the same hits, evictions and writebacks.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	type refLine struct {
		block uint64
		dirty bool
	}
	for _, cfg := range []CacheConfig{
		{Name: "tiny", SizeBytes: 8, Ways: 2, LineBytes: 4},
		{Name: "l1", SizeBytes: 512, Ways: 4, LineBytes: 32},
	} {
		c := NewCache(cfg)
		sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
		ref := make([][]refLine, sets) // most recently used last
		rng := rand.New(rand.NewSource(3))
		hot := []uint64{0, 1 << 40, ^uint64(0) - 64, 1<<63 | 1<<62, 1 << 62}
		for i := 0; i < 20_000; i++ {
			addr := hot[rng.Intn(len(hot))] + uint64(rng.Intn(4*cfg.SizeBytes))
			write := rng.Intn(3) == 0
			block := addr / uint64(cfg.LineBytes)
			set := &ref[block%uint64(sets)]
			want := AccessResult{}
			at := -1
			for k, l := range *set {
				if l.block == block {
					at = k
				}
			}
			line := refLine{block: block, dirty: write}
			if at >= 0 {
				want.Hit = true
				line.dirty = line.dirty || (*set)[at].dirty
				*set = append((*set)[:at], (*set)[at+1:]...)
			} else if len(*set) == cfg.Ways {
				want.Evicted, want.EvictedAddr, want.Writeback = true, (*set)[0].block*uint64(cfg.LineBytes), (*set)[0].dirty
				*set = (*set)[1:]
			}
			*set = append(*set, line)
			if got := c.Access(addr, write); got != want {
				t.Fatalf("%s: access %d (%#x, write=%v) = %+v, want %+v", cfg.Name, i, addr, write, got, want)
			}
		}
	}
}

// TestCacheRestoreGeometry: an image restores into a cache that differs
// only in timing, replacing whatever that cache held, and continues
// exactly like the source; a geometry mismatch is a caller bug.
func TestCacheRestoreGeometry(t *testing.T) {
	src := NewCache(CacheConfig{Name: "t", SizeBytes: 256, Ways: 2, LineBytes: 32, HitLatency: 2, Ports: 1})
	src.Access(0, true)
	src.Access(64, false)
	img := src.image()
	dst := NewCache(CacheConfig{Name: "t", SizeBytes: 256, Ways: 2, LineBytes: 32, HitLatency: 5, Ports: 2})
	dst.Access(128, false) // replaced by the restore
	dst.restore(&img)
	if !dst.Probe(0) || !dst.Probe(64) || dst.Probe(128) || dst.Stats != src.Stats {
		t.Fatal("restored state differs from the source")
	}
	for i, addr := range []uint64{128, 256, 0, 384, 64, 512} {
		if got, want := dst.Access(addr, i%2 == 0), src.Access(addr, i%2 == 0); got != want {
			t.Fatalf("access %d (%#x): restored cache %+v, source %+v", i, addr, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("restore across geometries did not panic")
		}
	}()
	NewCache(CacheConfig{Name: "t", SizeBytes: 256, Ways: 4, LineBytes: 32}).restore(&img)
}

func TestCacheMissRate(t *testing.T) {
	var s CacheStats
	if s.MissRate() != 0 {
		t.Error("idle miss rate != 0")
	}
	s = CacheStats{Reads: 8, ReadMiss: 2}
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("miss rate = %v, want 0.25", got)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := DefaultHierarchyConfig(1000) // 1ns baseline period
	h := NewHierarchy(cfg)

	// Cold fetch: L1 miss, L2 miss -> 2 + 10 + 100 cycles at baseline.
	lat := h.Access(AccessFetch, 0, 0x1000, 1000)
	if lat.L1Hit || lat.L2Hit {
		t.Errorf("cold access hit: %+v", lat)
	}
	if lat.Cycles != 2+10+100 {
		t.Errorf("cold latency = %d, want 112", lat.Cycles)
	}

	// Second access: L1 hit.
	lat = h.Access(AccessFetch, 0, 0x1000, 1000)
	if !lat.L1Hit || lat.Cycles != 2 {
		t.Errorf("warm fetch = %+v, want L1 hit 2 cycles", lat)
	}

	// Loads and stores go to the D-cache, independent of the I-cache.
	lat = h.Access(AccessLoad, 0, 0x1000, 1000)
	if lat.L1Hit {
		t.Error("load hit in L1D after only a fetch touched the line")
	}
	lat = h.Access(AccessStore, 0, 0x1000, 1000)
	if !lat.L1Hit {
		t.Error("store missed after load allocated the line")
	}
}

func TestHierarchyL2HitPath(t *testing.T) {
	cfg := DefaultHierarchyConfig(1000)
	h := NewHierarchy(cfg)
	h.Access(AccessLoad, 0, 0x4000, 1000) // allocate in L1D and L2
	// Evict from tiny... L1D is large; instead access same line via fetch
	// path: L1I misses but L2 hits.
	lat := h.Access(AccessFetch, 0, 0x4000, 1000)
	if lat.L1Hit {
		t.Error("fetch hit L1I unexpectedly")
	}
	if !lat.L2Hit {
		t.Error("fetch missed L2 after load allocated the line")
	}
	if lat.Cycles != 2+10 {
		t.Errorf("L2-hit latency = %d, want 12", lat.Cycles)
	}
}

func TestHierarchyMemoryLatencyScalesWithClock(t *testing.T) {
	cfg := DefaultHierarchyConfig(1000) // DRAM = 100_000 ps
	h := NewHierarchy(cfg)
	lat := h.Access(AccessLoad, 0, 0x9000, 500) // 2 GHz core: twice the cycles
	want := 2 + 10 + 200
	if lat.Cycles != want {
		t.Errorf("fast-clock cold latency = %d, want %d", lat.Cycles, want)
	}
}

// TestHierarchyLatePrefetch: a load demands a line the delta prefetcher
// issued fewer than prefetchDelay data accesses ago. The fill is in
// flight, so the access counts as late, stays a demand miss and pays
// L1 + L2 latency plus half the memory penalty.
func TestHierarchyLatePrefetch(t *testing.T) {
	cfg := DefaultHierarchyConfig(1000)
	cfg.Prefetch = DefaultPrefetchConfig(PFDelta)
	h := NewHierarchy(cfg)
	const pc, base, stride = 0x400, 0x10000, 64 // one L2 line per access
	// Accesses 1–3 train the stride to confidence 2; access 4 issues the
	// next two lines, ready at data access 4+prefetchDelay.
	for i := uint64(0); i < 4; i++ {
		h.Access(AccessLoad, pc, base+i*stride, 1000)
	}
	if st := h.PrefetchStats(); st.Issued != 2 || st.DemandMisses != 4 || st.Late != 0 {
		t.Fatalf("after training: %+v, want 2 issued, 4 demand misses, 0 late", st)
	}
	lat := h.Access(AccessLoad, pc, base+4*stride, 1000) // data access 5 < 8
	st := h.PrefetchStats()
	if st.Late != 1 || st.Useful != 0 {
		t.Errorf("late %d, useful %d, want 1 and 0", st.Late, st.Useful)
	}
	if st.DemandMisses != 5 {
		t.Errorf("demand misses %d, want 5: a late prefetch is still a miss", st.DemandMisses)
	}
	memCycles := int(cfg.MemLatencyPS / 1000)
	if want := cfg.L1D.HitLatency + cfg.L2Latency + memCycles/2; lat.Cycles != want || lat.L1Hit || lat.L2Hit {
		t.Errorf("late access %+v, want a %d-cycle miss", lat, want)
	}
}

func TestHierarchyResetStats(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig(1000))
	h.Access(AccessLoad, 0, 0, 1000)
	h.ResetStats()
	if h.L1D.Stats.Accesses() != 0 || h.L2.Stats.Accesses() != 0 {
		t.Error("stats survived reset")
	}
}

// TestHierarchyRestoreContinuesLikeSource: a hierarchy restored from an
// image, after a reset and whatever it held before, continues exactly like
// the hierarchy the image was taken from — caches, prefetcher training,
// in-flight prefetches and statistics — and the image does not follow
// later accesses to its source.
func TestHierarchyRestoreContinuesLikeSource(t *testing.T) {
	cfg := DefaultHierarchyConfig(1000)
	cfg.Prefetch = DefaultPrefetchConfig(PFDelta)
	// Accesses from, from+1, …: twelve PCs load with a fixed stride each,
	// which trains the delta prefetcher, and four access random addresses.
	access := func(h *Hierarchy, from, n int, r *rand.Rand) []Latency {
		var out []Latency
		for i := from; i < from+n; i++ {
			pc := uint64(i%16) * 4
			kind, addr := AccessLoad, 1<<24+pc<<16+uint64(i/16)*64
			if pc >= 48 {
				kind, addr = AccessKind(r.Intn(3)), uint64(r.Intn(1<<20))&^7
			}
			out = append(out, h.Access(kind, pc, addr, 1000))
		}
		return out
	}
	src := NewHierarchy(cfg)
	access(src, 0, 20_000, rand.New(rand.NewSource(11)))
	img := src.Image()

	dst := NewHierarchy(cfg)
	access(dst, 0, 5_000, rand.New(rand.NewSource(99)))
	dst.Reset(cfg)
	dst.Restore(img)
	want := access(src, 20_000, 20_000, rand.New(rand.NewSource(12)))
	got := access(dst, 20_000, 20_000, rand.New(rand.NewSource(12)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d after restore: %+v, source %+v", i, got[i], want[i])
		}
	}
	if dst.DemandStats() != src.DemandStats() || dst.PrefetchStats() != src.PrefetchStats() ||
		dst.L2.Stats != src.L2.Stats || dst.PrefetchStats().Issued == 0 {
		t.Fatalf("statistics after restore: demand %+v/%+v prefetch %+v/%+v",
			dst.DemandStats(), src.DemandStats(), dst.PrefetchStats(), src.PrefetchStats())
	}

	// The image is a copy: restoring it again gives the state at the time
	// it was taken, not the source's current state.
	again := NewHierarchy(cfg)
	again.Restore(img)
	if again.L1D.Stats == src.L1D.Stats {
		t.Fatal("the image followed its source's later accesses")
	}
}
