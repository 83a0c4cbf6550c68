package pipe

import (
	"slices"

	"flywheel/internal/isa"
)

// LSQ is the load/store queue. Entries sit in program order from dispatch
// until retirement. The model uses conservative memory disambiguation: a
// load may not access the cache until every older store has computed its
// address (i.e. has issued); when an older store to overlapping bytes
// exists, the load forwards from it instead of accessing the cache.
type LSQ struct {
	// entries[head:] are the queued instructions, oldest first. Retiring
	// the oldest advances head; Insert slides the queue back to the start
	// of the array (twice the capacity) only when it reaches the end, so
	// both are O(1) amortized.
	entries []*DynInst
	head    int
	cap     int

	// Forwards counts store-to-load forwards (for statistics).
	Forwards uint64
}

// NewLSQ builds a queue with the given capacity.
func NewLSQ(capacity int) *LSQ {
	return &LSQ{entries: make([]*DynInst, 0, 2*capacity), cap: capacity}
}

// Cap returns the capacity.
func (q *LSQ) Cap() int { return q.cap }

// Len returns the occupancy.
func (q *LSQ) Len() int { return len(q.entries) - q.head }

// Full reports whether the queue is at capacity.
func (q *LSQ) Full() bool { return q.Len() >= q.cap }

// Insert adds a memory instruction at dispatch; it reports false when full.
func (q *LSQ) Insert(d *DynInst) bool {
	if q.Full() {
		return false
	}
	if len(q.entries) == cap(q.entries) {
		n := copy(q.entries, q.entries[q.head:])
		clear(q.entries[n:])
		q.entries, q.head = q.entries[:n], 0
	}
	q.entries = append(q.entries, d)
	return true
}

// CanIssueLoad reports whether the load may access memory now: every older
// store must have issued (computed its address and data).
func (q *LSQ) CanIssueLoad(load *DynInst) bool {
	return load.Seq() < q.LoadBarrier()
}

// LoadBarrier returns the sequence number of the oldest store that has not
// issued yet (or the maximum sequence when every store has): loads older
// than the barrier may access memory. Issue loops compute the barrier once
// per select edge instead of rescanning the queue per waiting load — store
// states do not change inside a select scan, so one snapshot is exact.
func (q *LSQ) LoadBarrier() uint64 {
	for _, e := range q.entries[q.head:] {
		if e.class == isa.ClassStore && e.State < StateIssued {
			return e.Seq()
		}
	}
	return ^uint64(0)
}

// ForwardSource returns the youngest older store with overlapping bytes, if
// any; the load takes its data from the store buffer instead of the cache.
func (q *LSQ) ForwardSource(load *DynInst) *DynInst {
	var src *DynInst
	for _, e := range q.entries[q.head:] {
		if e.Seq() >= load.Seq() {
			break
		}
		if e.IsStore() && e.Overlaps(load) {
			src = e
		}
	}
	if src != nil {
		q.Forwards++
	}
	return src
}

// Remove drops a retired instruction from the queue head region. Instructions
// retire in program order, so the entry is expected at the front.
func (q *LSQ) Remove(d *DynInst) {
	if q.Len() > 0 && q.entries[q.head] == d {
		q.entries[q.head] = nil
		q.head++
		if q.head == len(q.entries) {
			q.entries, q.head = q.entries[:0], 0
		}
		return
	}
	for i := q.head; i < len(q.entries); i++ {
		if q.entries[i] == d {
			q.entries = slices.Delete(q.entries, i, i+1)
			return
		}
	}
}

// Reset empties the queue and clears its statistics (a reused core's
// reset).
func (q *LSQ) Reset() {
	clear(q.entries)
	q.entries, q.head = q.entries[:0], 0
	q.Forwards = 0
}
