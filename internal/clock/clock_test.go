package clock

import (
	"testing"
	"testing/quick"
)

func TestDomainEdges(t *testing.T) {
	d := NewDomain("fe", 500, 0)
	if d.NextEdge() != 500 {
		t.Errorf("first edge = %d, want 500", d.NextEdge())
	}
	d.Tick()
	d.Tick()
	if d.NextEdge() != 1500 {
		t.Errorf("third edge = %d, want 1500", d.NextEdge())
	}
	if d.Cycles != 2 {
		t.Errorf("cycles = %d, want 2", d.Cycles)
	}
}

func TestDomainPeriodChange(t *testing.T) {
	d := NewDomain("be", 1000, 0)
	d.Tick() // edge at 1000
	d.SetPeriod(667, 1000)
	if d.NextEdge() != 1667 {
		t.Errorf("edge after speed-up = %d, want 1667", d.NextEdge())
	}
	if d.Period() != 667 {
		t.Errorf("period = %d", d.Period())
	}
}

func TestDomainGating(t *testing.T) {
	d := NewDomain("fe", 100, 0)
	d.Tick()
	d.Gate()
	if !d.Gated() {
		t.Error("domain not gated")
	}
	d.Tick()
	d.Tick()
	d.Ungate()
	d.Tick()
	if d.Cycles != 2 {
		t.Errorf("active cycles = %d, want 2", d.Cycles)
	}
	if d.GatedCycles != 2 {
		t.Errorf("gated cycles = %d, want 2", d.GatedCycles)
	}
}

func TestSystemAdvanceOrdering(t *testing.T) {
	fe := NewDomain("fe", 500, 0)
	be := NewDomain("be", 1000, 0)
	sys := NewSystem(fe, be)

	// Edge sequence: 500(fe), 1000(fe+be), 1500(fe), 2000(fe+be)...
	now, fired := sys.Advance()
	if now != 500 || len(fired) != 1 || fired[0] != fe {
		t.Fatalf("advance 1: now=%d fired=%d", now, len(fired))
	}
	now, fired = sys.Advance()
	if now != 1000 || len(fired) != 2 {
		t.Fatalf("advance 2: now=%d fired=%d, want both domains", now, len(fired))
	}
	prev := now
	for i := 0; i < 100; i++ {
		now, _ = sys.Advance()
		if now <= prev {
			t.Fatalf("time went backwards: %d after %d", now, prev)
		}
		prev = now
	}
}

func TestSystemFrequencyRatioProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		pa := int64(a)%997 + 3
		pb := int64(b)%997 + 3
		fe := NewDomain("a", pa, 0)
		be := NewDomain("b", pb, 0)
		sys := NewSystem(fe, be)
		for sys.Now() < 1_000_000 {
			sys.Advance()
		}
		// Cycle counts must match elapsed/period within one tick.
		end := sys.Now()
		wantA := uint64(end / pa)
		wantB := uint64(end / pb)
		okA := fe.Cycles >= wantA-1 && fe.Cycles <= wantA+1
		okB := be.Cycles >= wantB-1 && be.Cycles <= wantB+1
		return okA && okB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptySystem(t *testing.T) {
	sys := NewSystem()
	if now, fired := sys.Advance(); now != 0 || fired != nil {
		t.Error("empty system advanced")
	}
}

func TestInvalidPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	NewDomain("bad", 0, 0)
}

func TestQueueVisibility(t *testing.T) {
	q := NewQueue[int](4)
	q.Push(1, 100)
	q.Push(2, 50) // behind 1 despite earlier readiness: FIFO order holds
	if _, ok := q.Pop(99); ok {
		t.Error("item visible before its readyAt")
	}
	v, ok := q.Pop(100)
	if !ok || v != 1 {
		t.Errorf("pop = %d, %v, want 1", v, ok)
	}
	v, ok = q.Pop(100)
	if !ok || v != 2 {
		t.Errorf("pop = %d, %v, want 2", v, ok)
	}
}

func TestQueueCapacity(t *testing.T) {
	q := NewQueue[string](2)
	if !q.Push("a", 0) || !q.Push("b", 0) {
		t.Fatal("pushes failed below capacity")
	}
	if q.Push("c", 0) {
		t.Error("push above capacity succeeded")
	}
	if !q.Full() || q.Free() != 0 {
		t.Error("capacity accounting wrong")
	}
	q.Pop(0)
	if q.Full() || q.Free() != 1 {
		t.Error("capacity accounting after pop wrong")
	}
}

func TestQueuePeekDoesNotRemove(t *testing.T) {
	q := NewQueue[int](1)
	q.Push(7, 0)
	if v, ok := q.Peek(0); !ok || v != 7 {
		t.Error("peek failed")
	}
	if q.Len() != 1 {
		t.Error("peek removed the item")
	}
}

func TestQueueFlush(t *testing.T) {
	q := NewQueue[int](4)
	q.Push(1, 0)
	q.Push(2, 0)
	q.Flush()
	if q.Len() != 0 {
		t.Error("flush left items")
	}
	if _, ok := q.Pop(1000); ok {
		t.Error("pop after flush succeeded")
	}
}

func TestQueueFIFOUnderLoadProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		q := NewQueue[uint16](len(vals) + 1)
		for _, v := range vals {
			q.Push(v, 0)
		}
		for _, want := range vals {
			got, ok := q.Pop(0)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQueueRingWrapAround drives the ring's head and tail around the end of
// its storage several times: FIFO order, visibility gating, Full/Free and
// Flush must not depend on where in the ring the entries sit.
func TestQueueRingWrapAround(t *testing.T) {
	const capacity = 3
	q := NewQueue[int](capacity)
	next, want := 0, 0 // next value to push, next value expected out
	for round := 0; round < 4*capacity; round++ {
		// Fill to capacity; each entry becomes visible at its own value.
		for !q.Full() {
			if !q.Push(next, int64(next)) {
				t.Fatalf("round %d: push %d failed below capacity", round, next)
			}
			next++
		}
		if q.Free() != 0 || q.Len() != capacity || q.Push(-1, 0) {
			t.Fatalf("round %d: full queue reports Len %d Free %d", round, q.Len(), q.Free())
		}
		// The head is not visible before its readyAt, and entries behind it
		// wait even when they would be visible.
		if want > 0 {
			if _, ok := q.Peek(int64(want) - 1); ok {
				t.Fatalf("round %d: head %d visible before its readyAt", round, want)
			}
		}
		// Pop two of three: the remaining entry carries the ring's head
		// across the end of the storage on the next round.
		for k := 0; k < 2; k++ {
			v, ok := q.Pop(int64(want))
			if !ok || v != want {
				t.Fatalf("round %d: pop = %d, %v, want %d", round, v, ok, want)
			}
			want++
		}
		if q.Len() != 1 || q.Free() != capacity-1 || q.Full() {
			t.Fatalf("round %d: after two pops Len %d Free %d", round, q.Len(), q.Free())
		}
	}
	q.Flush()
	if q.Len() != 0 || q.Free() != capacity {
		t.Fatalf("flush left Len %d Free %d", q.Len(), q.Free())
	}
	if _, ok := q.Pop(1 << 40); ok {
		t.Fatal("pop after flush succeeded")
	}
	// A flushed ring fills from its start again, in order.
	for v := 0; v < capacity; v++ {
		q.Push(v, 0)
	}
	for v := 0; v < capacity; v++ {
		if got, ok := q.Pop(0); !ok || got != v {
			t.Fatalf("after flush: pop = %d, %v, want %d", got, ok, v)
		}
	}
}
