package pipe

import (
	"testing"

	"flywheel/internal/emu"
	"flywheel/internal/isa"
)

func aluTrace(seq uint64) emu.Trace {
	return emu.Trace{
		Seq: seq,
		Inst: isa.Instruction{
			Op: isa.ADD, Rd: isa.IntReg(1), Rs1: isa.IntReg(2), Rs2: isa.IntReg(3),
		},
	}
}

func TestArenaAllocFreeRecycles(t *testing.T) {
	a := NewArena(4)
	if a.Cap() != 4 || a.Live() != 0 {
		t.Fatalf("fresh arena: cap=%d live=%d", a.Cap(), a.Live())
	}
	d := a.Alloc(aluTrace(0))
	if a.Live() != 1 {
		t.Fatalf("live=%d after alloc, want 1", a.Live())
	}
	if d.ResultAt != FarFuture || d.DoneAt != FarFuture || d.IssueUnit != -1 {
		t.Fatal("allocated instruction not reset to defaults")
	}
	ref := d.Ref()
	if a.Get(ref) != d {
		t.Fatal("live ref does not resolve to its instruction")
	}
	a.Free(d)
	if a.Live() != 0 {
		t.Fatalf("live=%d after free, want 0", a.Live())
	}
	if a.Get(ref) != nil {
		t.Fatal("stale ref resolved after free")
	}
}

func TestArenaStaleRefAfterRecycle(t *testing.T) {
	a := NewArena(1)
	d1 := a.Alloc(aluTrace(0))
	ref1 := d1.Ref()
	a.Free(d1)
	d2 := a.Alloc(aluTrace(1))
	if d2.slot != d1.slot {
		t.Fatal("single-slot arena did not recycle the slot")
	}
	if a.Get(ref1) != nil {
		t.Fatal("ref to the old occupant resolved against the new one")
	}
	if a.Get(d2.Ref()) != d2 {
		t.Fatal("new occupant's ref does not resolve")
	}
}

// TestArenaRecycledProducerReadsReady checks the wake-up semantics the RAT
// relies on: once a producer's slot is recycled, a consumer still holding
// its ref must treat the operand as architecturally ready.
func TestArenaRecycledProducerReadsReady(t *testing.T) {
	a := NewArena(8)
	prod := a.Alloc(aluTrace(0))
	cons := a.Alloc(emu.Trace{
		Seq:  1,
		Inst: isa.Instruction{Op: isa.ADD, Rd: isa.IntReg(4), Rs1: isa.IntReg(1), Rs2: isa.RegNone},
	})
	cons.Src[0] = prod.Ref()
	if got := cons.SourcesReadyAt(0); got != FarFuture {
		t.Fatalf("unissued producer: ready at %d, want FarFuture", got)
	}
	a.Free(prod)
	if got := cons.SourcesReadyAt(0); got != 0 {
		t.Fatalf("recycled producer: ready at %d, want 0 (ready)", got)
	}
}

func TestArenaGrowsWhenExhausted(t *testing.T) {
	a := NewArena(2)
	d1, d2 := a.Alloc(aluTrace(0)), a.Alloc(aluTrace(1))
	d3 := a.Alloc(aluTrace(2)) // over capacity: grows
	if a.Cap() != 3 {
		t.Fatalf("cap=%d after growth, want 3", a.Cap())
	}
	for _, d := range []*DynInst{d1, d2, d3} {
		if a.Get(d.Ref()) != d {
			t.Fatal("instruction unreachable after growth")
		}
	}
}

// TestArenaSteadyStateAllocFree pins the arena's steady state at zero heap
// allocations per in-flight instruction lifecycle.
func TestArenaSteadyStateAllocFree(t *testing.T) {
	a := NewArena(64)
	tr := aluTrace(0)
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			d := a.Alloc(tr)
			a.Free(d)
		}
	})
	if avg != 0 {
		t.Fatalf("arena steady state allocates: %.2f allocs per 64 lifecycles, want 0", avg)
	}
}

// BenchmarkArenaLifecycle measures one alloc/free round trip.
func BenchmarkArenaLifecycle(b *testing.B) {
	a := NewArena(64)
	tr := aluTrace(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := a.Alloc(tr)
		a.Free(d)
	}
}

// TestArenaResetMatchesFresh: a reset arena hands out slots in the order a
// fresh arena of the same capacity does, with freshly initialized
// instructions, and no Ref taken before the reset resolves after it.
func TestArenaResetMatchesFresh(t *testing.T) {
	const capacity = 6
	used := NewArena(capacity)
	var refs []Ref
	var live []*DynInst
	for i := 0; i < capacity; i++ {
		d := used.Alloc(aluTrace(uint64(i)))
		d.State, d.ResultAt, d.Mispredicted, d.LID = StateIssued, 77, true, [3]uint16{1, 2, 3}
		d.Src[0] = Ref(99)
		refs = append(refs, d.Ref())
		live = append(live, d)
	}
	// Free out of order, so the free list is scrambled, and leave two live.
	used.Free(live[3])
	used.Free(live[0])
	used.Free(live[5])
	used.Free(live[1])

	used.Reset()
	fresh := NewArena(capacity)
	if used.Cap() != fresh.Cap() || used.Live() != 0 || used.Allocs != 0 || used.Frees != 0 {
		t.Fatalf("reset arena: cap %d live %d allocs %d frees %d", used.Cap(), used.Live(), used.Allocs, used.Frees)
	}
	for _, r := range refs {
		if used.Get(r) != nil {
			t.Fatalf("ref %#x from before the reset still resolves", r)
		}
	}
	for i := 0; i < capacity; i++ {
		tr := aluTrace(uint64(100 + i))
		a, b := used.Alloc(tr), fresh.Alloc(tr)
		if a.slot != b.slot {
			t.Fatalf("alloc %d: reset arena gave slot %d, a fresh one slot %d", i, a.slot, b.slot)
		}
		// Equal apart from the generation, which keeps advancing.
		ca, cb := *a, *b
		ca.arena, cb.arena, ca.gen, cb.gen = nil, nil, 0, 0
		if ca != cb {
			t.Fatalf("alloc %d: reset arena's instruction %+v differs from a fresh one's %+v", i, ca, cb)
		}
		if used.Get(a.Ref()) != a {
			t.Fatalf("alloc %d: new ref does not resolve", i)
		}
	}
}
