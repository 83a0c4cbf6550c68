package pipe

import (
	"slices"
	"testing"

	"flywheel/internal/emu"
	"flywheel/internal/isa"
)

// testArena backs the in-flight instructions built by the test helpers, so
// Src references resolve the way they do inside a core. Tests never free,
// and the arena grows on demand.
var testArena = NewArena(64)

func alu(seq uint64, rd, rs1, rs2 int) *DynInst {
	return testArena.Alloc(emu.Trace{
		Seq: seq,
		Inst: isa.Instruction{
			Op: isa.ADD, Rd: isa.IntReg(rd), Rs1: isa.IntReg(rs1), Rs2: isa.IntReg(rs2),
		},
	})
}

func load(seq uint64, rd int, addr uint64) *DynInst {
	d := testArena.Alloc(emu.Trace{
		Seq:  seq,
		Inst: isa.Instruction{Op: isa.LD, Rd: isa.IntReg(rd), Rs1: isa.IntReg(1), Rs2: isa.RegNone},
		Addr: addr,
	})
	return d
}

func store(seq uint64, addr uint64) *DynInst {
	return testArena.Alloc(emu.Trace{
		Seq:  seq,
		Inst: isa.Instruction{Op: isa.SD, Rs2: isa.IntReg(2), Rs1: isa.IntReg(1), Rd: isa.RegNone},
		Addr: addr,
	})
}

func TestDynInstSourcesReadyAt(t *testing.T) {
	p1 := alu(0, 1, 0, 0)
	p2 := alu(1, 2, 0, 0)
	d := alu(2, 3, 1, 2)
	d.Src[0], d.Src[1] = p1.Ref(), p2.Ref()

	if got := d.SourcesReadyAt(0); got != FarFuture {
		t.Errorf("unissued producers: ready at %d, want FarFuture", got)
	}
	p1.ResultAt = 100
	p2.ResultAt = 300
	if got := d.SourcesReadyAt(50); got != 350 {
		t.Errorf("with extra delay: %d, want 350 (max of producers + delay)", got)
	}
	// Once every producer has issued the answer is final and memoized; the
	// issue loops always ask with their window's constant extra delay.
	if got := d.SourcesReadyAt(50); got != 350 {
		t.Errorf("memoized: %d, want 350", got)
	}
	d2 := alu(3, 3, 1, 2)
	if got := d2.SourcesReadyAt(0); got != 0 {
		t.Errorf("no producers: %d, want 0", got)
	}
}

func TestDynInstSourcesReadyAtMemoSkipsUnissued(t *testing.T) {
	p1 := alu(0, 1, 0, 0)
	d := alu(1, 2, 1, 0)
	d.Src[0] = p1.Ref()
	if got := d.SourcesReadyAt(0); got != FarFuture {
		t.Fatalf("unissued producer: %d, want FarFuture", got)
	}
	// FarFuture is never memoized: once the producer issues, the consumer
	// sees the real wake-up time.
	p1.ResultAt = 700
	if got := d.SourcesReadyAt(0); got != 700 {
		t.Fatalf("after producer issue: %d, want 700", got)
	}
}

func TestDynInstOverlaps(t *testing.T) {
	a := store(0, 100) // bytes 100..107
	b := load(1, 3, 104)
	c := load(2, 3, 108)
	if !a.Overlaps(b) {
		t.Error("overlapping accesses not detected")
	}
	if a.Overlaps(c) {
		t.Error("adjacent accesses flagged as overlap")
	}
}

func TestFUPoolWidthLimit(t *testing.T) {
	pool := NewFUPool(DefaultFUConfig())
	now, p := int64(1000), int64(100)
	pool.BeginCycle(now)
	got := 0
	for i := 0; i < 10; i++ {
		if pool.TryReserve(isa.ClassIntALU, now, p) {
			got++
		}
	}
	if got != 4 {
		t.Errorf("ALU issues in one cycle = %d, want 4", got)
	}
	// Next edge: units free again (pipelined).
	pool.BeginCycle(now + p)
	if !pool.TryReserve(isa.ClassIntALU, now+p, p) {
		t.Error("ALU not available on next edge")
	}
}

func TestFUPoolUnpipelinedDivider(t *testing.T) {
	pool := NewFUPool(DefaultFUConfig())
	p := int64(100)
	pool.BeginCycle(1000)
	if !pool.TryReserve(isa.ClassFPDiv, 1000, p) {
		t.Fatal("first div rejected")
	}
	// Only one FP divider: busy for 12 cycles.
	pool.BeginCycle(1100)
	if pool.TryReserve(isa.ClassFPDiv, 1100, p) {
		t.Error("second div accepted while divider busy")
	}
	pool.BeginCycle(1000 + 12*p)
	if !pool.TryReserve(isa.ClassFPDiv, 1000+12*p, p) {
		t.Error("divider not free after latency elapsed")
	}
}

func TestFUPoolSharedMulDivGroup(t *testing.T) {
	pool := NewFUPool(DefaultFUConfig())
	p := int64(100)
	pool.BeginCycle(0)
	if !pool.TryReserve(isa.ClassIntMul, 0, p) || !pool.TryReserve(isa.ClassIntDiv, 0, p) {
		t.Fatal("mul+div pair rejected")
	}
	if pool.TryReserve(isa.ClassIntMul, 0, p) {
		t.Error("third op accepted on 2-unit group")
	}
}

func TestIssueWindowBackToBack(t *testing.T) {
	w := NewIssueWindow(8)
	pool := NewFUPool(DefaultFUConfig())
	p := int64(100)

	prod := alu(0, 1, 0, 0)
	cons := alu(1, 2, 1, 0)
	cons.Src[0] = prod.Ref()
	w.Insert(prod, 0)
	w.Insert(cons, 0)

	sel := w.Select(1000, p, 6, pool, nil)
	if len(sel) != 1 || sel[0] != prod {
		t.Fatalf("edge 1: selected %d, want only producer", len(sel))
	}
	prod.ResultAt = 1000 + p // single-cycle ALU

	// Back-to-back: consumer issues on the very next edge.
	sel = w.Select(1000+p, p, 6, pool, nil)
	if len(sel) != 1 || sel[0] != cons {
		t.Fatalf("edge 2: selected %d, want consumer", len(sel))
	}
}

func TestIssueWindowPipelinedWakeupBreaksBackToBack(t *testing.T) {
	w := NewIssueWindow(8)
	pool := NewFUPool(DefaultFUConfig())
	p := int64(100)
	w.ExtraWakeupDelayPS = p // Figure 2: pipelined wake-up/select

	prod := alu(0, 1, 0, 0)
	cons := alu(1, 2, 1, 0)
	cons.Src[0] = prod.Ref()
	w.Insert(prod, 0)
	w.Insert(cons, 0)

	w.Select(1000, p, 6, pool, nil)
	prod.ResultAt = 1000 + p
	if sel := w.Select(1000+p, p, 6, pool, nil); len(sel) != 0 {
		t.Fatal("consumer issued back-to-back despite pipelined wake-up")
	}
	if sel := w.Select(1000+2*p, p, 6, pool, nil); len(sel) != 1 {
		t.Fatal("consumer did not issue one cycle later")
	}
}

func TestIssueWindowVisibility(t *testing.T) {
	w := NewIssueWindow(4)
	pool := NewFUPool(DefaultFUConfig())
	d := alu(0, 1, 0, 0)
	w.Insert(d, 500) // synchronization delay: visible at 500
	if sel := w.Select(400, 100, 6, pool, nil); len(sel) != 0 {
		t.Error("entry selected before visibility time")
	}
	if sel := w.Select(500, 100, 6, pool, nil); len(sel) != 1 {
		t.Error("entry not selected at visibility time")
	}
}

func TestIssueWindowOldestFirstAndWidth(t *testing.T) {
	w := NewIssueWindow(16)
	pool := NewFUPool(DefaultFUConfig())
	var all []*DynInst
	for i := 0; i < 8; i++ {
		d := alu(uint64(i), 1+i%4, 0, 0)
		all = append(all, d)
		w.Insert(d, 0)
	}
	sel := w.Select(100, 100, 6, pool, nil)
	// Width 6 but only 4 ALUs: FU-bound.
	if len(sel) != 4 {
		t.Fatalf("selected %d, want 4 (ALU bound)", len(sel))
	}
	for i, d := range sel {
		if d != all[i] {
			t.Errorf("selection not oldest-first at %d", i)
		}
	}
	if w.Len() != 4 {
		t.Errorf("window kept %d, want 4", w.Len())
	}
}

func TestIssueWindowExtraPredicate(t *testing.T) {
	w := NewIssueWindow(4)
	pool := NewFUPool(DefaultFUConfig())
	d := load(0, 3, 0x100)
	w.Insert(d, 0)
	block := func(*DynInst) SelectVerdict { return SelectSkip }
	if sel := w.Select(100, 100, 6, pool, block); len(sel) != 0 {
		t.Error("predicate did not block selection")
	}
	allow := func(*DynInst) SelectVerdict { return SelectOK }
	if sel := w.Select(200, 100, 6, pool, allow); len(sel) != 1 {
		t.Error("predicate blocked valid selection")
	}
}

func TestIssueWindowCapacity(t *testing.T) {
	w := NewIssueWindow(2)
	if !w.Insert(alu(0, 1, 0, 0), 0) || !w.Insert(alu(1, 1, 0, 0), 0) {
		t.Fatal("insert below capacity failed")
	}
	if w.Insert(alu(2, 1, 0, 0), 0) {
		t.Error("insert above capacity succeeded")
	}
	if !w.Full() {
		t.Error("window not full")
	}
}

func TestROBOrdering(t *testing.T) {
	r := NewROB(4)
	a, b := alu(0, 1, 0, 0), alu(1, 2, 0, 0)
	r.Push(a)
	r.Push(b)
	if r.Head() != a {
		t.Error("head is not oldest")
	}
	if got := r.PopHead(); got != a {
		t.Error("pop did not return oldest")
	}
	if got := r.PopHead(); got != b {
		t.Error("second pop wrong")
	}
	if r.PopHead() != nil {
		t.Error("pop from empty returned non-nil")
	}
}

func TestROBWrapAround(t *testing.T) {
	r := NewROB(2)
	for i := 0; i < 5; i++ {
		d := alu(uint64(i), 1, 0, 0)
		if !r.Push(d) {
			t.Fatalf("push %d failed", i)
		}
		if got := r.PopHead(); got != d {
			t.Fatalf("wraparound pop %d wrong", i)
		}
	}
	r.Push(alu(10, 1, 0, 0))
	r.Push(alu(11, 1, 0, 0))
	if r.Push(alu(12, 1, 0, 0)) {
		t.Error("push to full ROB succeeded")
	}
	if !r.Full() || r.Len() != 2 {
		t.Error("occupancy accounting wrong")
	}
}

func TestLSQLoadOrdering(t *testing.T) {
	q := NewLSQ(8)
	st := store(0, 0x100)
	ld := load(1, 3, 0x200)
	q.Insert(st)
	q.Insert(ld)
	if q.CanIssueLoad(ld) {
		t.Error("load allowed before older store issued")
	}
	st.State = StateIssued
	if !q.CanIssueLoad(ld) {
		t.Error("load blocked after older store issued")
	}
}

func TestLSQForwarding(t *testing.T) {
	q := NewLSQ(8)
	st1 := store(0, 0x100)
	st2 := store(1, 0x100) // younger store, same address
	ld := load(2, 3, 0x100)
	other := load(3, 4, 0x500)
	q.Insert(st1)
	q.Insert(st2)
	q.Insert(ld)
	q.Insert(other)
	if src := q.ForwardSource(ld); src != st2 {
		t.Errorf("forward source = %v, want youngest matching store", src)
	}
	if src := q.ForwardSource(other); src != nil {
		t.Error("non-overlapping load got a forward source")
	}
	if q.Forwards != 1 {
		t.Errorf("forward count = %d, want 1", q.Forwards)
	}
}

func TestLSQRemove(t *testing.T) {
	q := NewLSQ(4)
	a, b := store(0, 0), load(1, 3, 8)
	q.Insert(a)
	q.Insert(b)
	q.Remove(a)
	if q.Len() != 1 {
		t.Errorf("len = %d after remove, want 1", q.Len())
	}
	if q.CanIssueLoad(b) != true {
		t.Error("removed store still blocks load")
	}
}

// TestLSQRetireWraps retires through many times the queue's capacity, with
// the head sliding back to the start of its array, and checks the queue
// against a plain slice: occupancy, the load barrier from the oldest entry
// and a removal that is not at the head.
func TestLSQRetireWraps(t *testing.T) {
	q := NewLSQ(4)
	var model []*DynInst
	seq := uint64(0)
	for round := 0; round < 40; round++ {
		for !q.Full() {
			var d *DynInst
			if seq%3 == 0 {
				d = store(seq, 8*seq)
			} else {
				d = load(seq, 3, 8*seq)
			}
			seq++
			q.Insert(d)
			model = append(model, d)
		}
		if round%5 == 4 {
			// Out of order: drop the second entry.
			q.Remove(model[1])
			model = slices.Delete(model, 1, 2)
		}
		for range 1 + round%3 {
			q.Remove(model[0])
			model = model[1:]
		}
		want := ^uint64(0)
		for _, e := range model {
			if e.IsStore() && e.State < StateIssued {
				want = e.Seq()
				break
			}
		}
		if q.Len() != len(model) || q.LoadBarrier() != want {
			t.Fatalf("round %d: len %d, barrier %d; want %d, %d", round, q.Len(), q.LoadBarrier(), len(model), want)
		}
		if len(model) > 0 && model[0].IsStore() {
			model[0].State = StateIssued
		}
	}
}

func TestRATLinksDependencies(t *testing.T) {
	rat := NewRAT(testArena)
	p := alu(0, 1, 0, 0) // writes r1
	c := alu(1, 2, 1, 3) // reads r1, r3
	rat.Link(p)
	rat.Link(c)
	if c.Src[0] != p.Ref() {
		t.Error("consumer not linked to producer")
	}
	if c.Src[1] != NoRef {
		t.Error("unwritten register linked to a producer")
	}
	// A third instruction reading r2 links to c.
	d := alu(2, 4, 2, 0)
	rat.Link(d)
	if d.Src[0] != c.Ref() {
		t.Error("chain not linked")
	}
}

func TestRATRetireClears(t *testing.T) {
	rat := NewRAT(testArena)
	p := alu(0, 1, 0, 0)
	rat.Link(p)
	p.State = StateRetired
	rat.Retire(p)
	c := alu(1, 2, 1, 0)
	rat.Link(c)
	if c.Src[0] != NoRef {
		t.Error("retired producer still linked")
	}
}

func TestRATIgnoresRetiredProducers(t *testing.T) {
	rat := NewRAT(testArena)
	p := alu(0, 1, 0, 0)
	rat.Link(p)
	p.State = StateRetired // retired but not yet cleared from the table
	c := alu(1, 2, 1, 0)
	rat.Link(c)
	if c.Src[0] != NoRef {
		t.Error("linked to a retired producer")
	}
}
