package pipe

import "flywheel/internal/emu"

// Ref identifies a DynInst living in an Arena slot, tagged with the slot's
// generation at link time. The zero Ref means "no instruction". Because
// generations advance on every free, a Ref held across the producer's
// retirement simply stops resolving — exactly the semantics the register
// alias table needs: a recycled producer is by definition architecturally
// complete, so its value is ready.
type Ref uint64

// NoRef is the absent-reference value.
const NoRef Ref = 0

// makeRef packs a slot index and generation. Slot indexes are offset by one
// so that the zero Ref never aliases slot 0.
func makeRef(slot, gen uint32) Ref {
	return Ref(uint64(gen)<<32 | uint64(slot+1))
}

func (r Ref) split() (slot, gen uint32) {
	return uint32(r&0xffffffff) - 1, uint32(r >> 32)
}

// Arena recycles DynInst storage for the in-flight window of a timing
// core. Slots are preallocated once (and grown on demand in one-slot
// steps, which only happens if a caller retains instructions beyond the
// configured in-flight capacity), so the steady-state hot loop performs
// zero allocations per dynamic instruction — where the previous design
// heap-allocated one *DynInst per instruction and made the GC chase
// millions of Src pointers across the heap.
//
// Lifecycle: Alloc at fetch (or replay issue), Free at retirement or on a
// front-end squash. Freeing bumps the slot's generation, invalidating every
// outstanding Ref to the old occupant.
type Arena struct {
	slots []*DynInst
	free  []uint32

	// Allocs and Frees count lifecycle events (for tests and stats).
	Allocs uint64
	Frees  uint64
}

// ArenaCapacity sizes an arena for a core: in-flight instructions live
// from fetch to retirement, so the arena must cover the reorder buffer
// plus everything parked in front of dispatch (front-end queue, one fetch
// group of lookahead) with a little slack. Both timing cores size through
// this helper so their accounting cannot drift.
func ArenaCapacity(robSize, frontQueueCap, fetchWidth int) int {
	return robSize + frontQueueCap + fetchWidth + 2
}

// NewArena builds an arena with the given slot capacity. Capacity should
// cover every place a core can park an instruction simultaneously: reorder
// buffer, front-end queue, fetch lookahead and one fetch group of slack.
func NewArena(capacity int) *Arena {
	if capacity < 1 {
		capacity = 1
	}
	a := &Arena{
		slots: make([]*DynInst, capacity),
		free:  make([]uint32, capacity),
	}
	for i := range a.slots {
		d := &DynInst{arena: a, slot: uint32(i), gen: 1}
		a.slots[i] = d
		// LIFO free list: hand out low slots first.
		a.free[i] = uint32(capacity - 1 - i)
	}
	return a
}

// Reset frees every slot, leaving the arena as NewArena(a.Cap()) builds
// it: the same LIFO free list, which hands out low slots first. Each
// slot's generation advances instead of restarting, so no Ref taken before
// the reset resolves after it. A core reused for another run resets its
// arena instead of building a new one.
func (a *Arena) Reset() {
	n := len(a.slots)
	if cap(a.free) < n {
		a.free = make([]uint32, n)
	}
	a.free = a.free[:n]
	for i, d := range a.slots {
		d.gen++
		a.free[i] = uint32(n - 1 - i)
	}
	a.Allocs, a.Frees = 0, 0
}

// Cap returns the current slot count.
func (a *Arena) Cap() int { return len(a.slots) }

// Live returns how many slots are currently allocated.
func (a *Arena) Live() int { return len(a.slots) - len(a.free) }

// Alloc recycles a slot for the given oracle record. The returned
// instruction is valid until Free; its Ref stops resolving after that.
func (a *Arena) Alloc(tr emu.Trace) *DynInst {
	if len(a.free) == 0 {
		// Capacity was undersized: grow by one stable slot. The pointer
		// table keeps existing instructions in place.
		d := &DynInst{arena: a, slot: uint32(len(a.slots)), gen: 1}
		a.slots = append(a.slots, d)
		a.free = append(a.free, d.slot)
	}
	idx := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	// Reset the slot in place: clearing it and setting the few non-zero
	// fields avoids building a whole DynInst and copying it over the slot.
	d := a.slots[idx]
	gen := d.gen
	*d = DynInst{}
	d.Trace = tr
	d.ResultAt, d.DoneAt = FarFuture, FarFuture
	d.IssueUnit = -1
	d.arena, d.slot, d.gen = a, idx, gen
	d.class = tr.Inst.Class()
	d.srcReady = -1
	d.iwSlot = -1
	a.Allocs++
	return d
}

// Free returns an instruction's slot to the arena and invalidates every
// outstanding Ref to it. Callers must not touch d afterwards.
func (a *Arena) Free(d *DynInst) {
	if d == nil || d.arena != a {
		return
	}
	d.gen++
	a.free = append(a.free, d.slot)
	a.Frees++
}

// Get resolves a Ref. It returns nil for NoRef and for stale references
// whose slot has been freed (and possibly recycled) since link time.
func (a *Arena) Get(r Ref) *DynInst {
	if r == NoRef {
		return nil
	}
	slot, gen := r.split()
	if slot >= uint32(len(a.slots)) {
		return nil
	}
	d := a.slots[slot]
	if d.gen != gen {
		return nil
	}
	return d
}
