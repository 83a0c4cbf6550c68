package mem

import "fmt"

// Canonical prefetcher names. The empty string canonicalizes to PFNone
// everywhere (HierarchyConfig, lab.Job, explore axes).
const (
	PFNone  = "none"
	PFDelta = "delta"
)

// Prefetchers lists the known prefetchers in canonical order.
func Prefetchers() []string { return []string{PFNone, PFDelta} }

// KnownPrefetcher reports whether name selects a prefetcher. The empty
// string is the canonical no-prefetcher default.
func KnownPrefetcher(name string) bool {
	switch name {
	case "", PFNone, PFDelta:
		return true
	}
	return false
}

// PrefetchConfig selects and sizes the hardware prefetcher watching the
// L1↔L2 boundary. The zero value means no prefetcher; it must stay
// comparable (it is part of the warm-template key in package sim).
type PrefetchConfig struct {
	Kind      string // "" or PFNone, or PFDelta
	Degree    int    // lines issued per trigger
	TableSize int    // delta-table entries (power of two)
}

// DefaultPrefetchConfig returns the canonical configuration for a
// prefetcher kind, so equal selections produce equal (comparable) configs.
// It panics on unknown kinds: validate with KnownPrefetcher first.
func DefaultPrefetchConfig(kind string) PrefetchConfig {
	switch kind {
	case "", PFNone:
		return PrefetchConfig{}
	case PFDelta:
		return PrefetchConfig{Kind: PFDelta, Degree: 2, TableSize: 256}
	}
	panic(fmt.Sprintf("mem: unknown prefetcher %q", kind))
}

// Prefetcher predicts future demand lines from the demand-miss stream at
// the L1↔L2 boundary. The Hierarchy owns issue filtering, in-flight
// tracking and statistics; an implementation owns only its training state.
//
// Observe trains on one demand L1 miss (pc is the accessing instruction,
// addr the byte address) and appends up to Degree predicted byte addresses
// to dst, returning the extended slice. CopyStateFrom clones the training
// state of an identically configured prefetcher (warm snapshots) and
// panics on a mismatch.
type Prefetcher interface {
	Kind() string
	Observe(pc, addr uint64, dst []uint64) []uint64
	Reset()
	CopyStateFrom(src Prefetcher)
}

// newPrefetcher builds the prefetcher selected by cfg.Kind (non-empty,
// already validated).
func newPrefetcher(cfg PrefetchConfig) Prefetcher {
	switch cfg.Kind {
	case PFDelta:
		return newDeltaPrefetcher(cfg)
	}
	panic(fmt.Sprintf("mem: unknown prefetcher %q", cfg.Kind))
}

// deltaEntry is one PC's stride state.
type deltaEntry struct {
	pc       uint64
	lastAddr uint64
	delta    int64
	conf     uint8 // 2-bit confidence
}

// deltaPrefetcher is a PC-indexed delta/stride prefetcher: each load/store
// PC tracks its last address and most recent address delta with a 2-bit
// confidence counter; once the same delta repeats (confidence >= 2) it
// issues Degree prefetches down the stride.
type deltaPrefetcher struct {
	table  []deltaEntry
	degree int
}

func newDeltaPrefetcher(cfg PrefetchConfig) *deltaPrefetcher {
	size := cfg.TableSize
	if size <= 0 {
		size = 256
	}
	n := 1
	for n < size {
		n <<= 1
	}
	degree := cfg.Degree
	if degree <= 0 {
		degree = 2
	}
	return &deltaPrefetcher{table: make([]deltaEntry, n), degree: degree}
}

func (d *deltaPrefetcher) Kind() string { return PFDelta }

func (d *deltaPrefetcher) Reset() {
	for i := range d.table {
		d.table[i] = deltaEntry{}
	}
}

func (d *deltaPrefetcher) CopyStateFrom(src Prefetcher) {
	s, ok := src.(*deltaPrefetcher)
	if !ok || len(s.table) != len(d.table) || s.degree != d.degree {
		panic("mem: delta prefetcher CopyStateFrom with mismatched source")
	}
	copy(d.table, s.table)
}

func (d *deltaPrefetcher) Observe(pc, addr uint64, dst []uint64) []uint64 {
	e := &d.table[(pc>>2)&uint64(len(d.table)-1)]
	if e.pc != pc {
		// Tag miss: steal the slot, start tracking this PC.
		*e = deltaEntry{pc: pc, lastAddr: addr}
		return dst
	}
	delta := int64(addr - e.lastAddr)
	e.lastAddr = addr
	if delta == 0 {
		return dst
	}
	if delta != e.delta {
		if e.conf > 0 {
			e.conf--
			return dst
		}
		e.delta = delta
		return dst
	}
	if e.conf < 3 {
		e.conf++
	}
	if e.conf < 2 {
		return dst
	}
	next := addr
	for k := 0; k < d.degree; k++ {
		next += uint64(e.delta)
		dst = append(dst, next)
	}
	return dst
}
