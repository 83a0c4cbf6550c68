package pipe

import "math/bits"

// IssueWindow models the monolithic R10000-style issue queue: dispatched
// instructions wait here until their operands are ready (wake-up) and a
// functional unit accepts them (select). Entries carry a visibility
// timestamp so the same structure serves both the fully synchronous
// baseline (visibleAt = dispatch time) and the Dual-Clock Issue Window
// (visibleAt = arrival + synchronization delay, §3.2).
//
// The dual-clock design adopts the paper's Figure 5 solution (duplicated
// tag matching over the previous two producer cycles), so no wake-ups are
// lost; the modelled cost is the synchronization latency on insertion.
//
// Implementation. Entries live in stable slots; a bitmap tracks the small
// set that must be examined at the next select edge. An examined entry
// that cannot issue leaves the per-edge set along the axis that blocks it:
//
//   - waiting on an unissued producer — parked on that producer's waiter
//     chain and re-activated when it issues (the tag broadcast);
//   - waiting for a known future time (visibility, an issued producer's
//     ready time) — scheduled on a min-heap timer wheel and re-activated
//     when the time arrives;
//   - blocked on per-edge state (functional unit occupancy, the cores'
//     extra predicate) — stays active and is re-examined every edge.
//
// The previous implementation rescanned the whole window every edge,
// re-walking every entry's producers; with a full 128-entry window that
// single loop dominated the entire simulator's profile. The scan now
// touches only entries whose eligibility can actually have changed.
// Selection order is unchanged: eligible candidates issue oldest-first.
type IssueWindow struct {
	slots  []iwEntry
	occ    []uint64 // occupied slots
	act    []uint64 // occupied slots to examine at the next edge
	count  int
	timers timerHeap // slots scheduled to re-activate at a known time
	// ready holds the entries whose time-based eligibility is proven and
	// permanent (visible, operands ready), sorted oldest-first. They wait
	// only for per-edge structural resources, so selection traverses this
	// list in age order and stops at the issue width — the deep backlog
	// behind a structural bottleneck costs nothing per edge.
	ready  []readyNode
	picked []*DynInst // reused Select result buffer

	// ExtraWakeupDelayPS widens the wake-up loop; the pipelined
	// wake-up/select variant of Figure 2 sets it to one back-end period,
	// breaking back-to-back scheduling of dependent instructions.
	ExtraWakeupDelayPS int64

	// Stats
	Inserted uint64
	Selected uint64
}

type iwEntry struct {
	inst      *DynInst
	visibleAt int64
	seq       uint64 // age for oldest-first selection
}

// timerNode schedules one slot's re-examination.
type timerNode struct {
	t    int64
	slot int32
}

// readyNode is one eligible entry in the age-sorted ready list.
type readyNode struct {
	seq  uint64
	slot int32
}

// SelectVerdict is the extra predicate's answer for one candidate.
type SelectVerdict uint8

// Verdicts. SelectStop declares that this candidate and every younger one
// is blocked (an age-monotone condition like the trace-change gate), so
// the selection traversal can end immediately.
const (
	SelectOK SelectVerdict = iota
	SelectSkip
	SelectStop
)

// timerHeap is a plain binary min-heap on t.
type timerHeap []timerNode

func (h *timerHeap) push(n timerNode) {
	*h = append(*h, n)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].t <= s[i].t {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *timerHeap) pop() timerNode {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l].t < s[m].t {
			m = l
		}
		if r < len(s) && s[r].t < s[m].t {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// NewIssueWindow builds a window with the given capacity.
func NewIssueWindow(capacity int) *IssueWindow {
	words := (capacity + 63) / 64
	return &IssueWindow{
		slots: make([]iwEntry, capacity),
		occ:   make([]uint64, words),
		act:   make([]uint64, words),
	}
}

// Len returns the current occupancy.
func (w *IssueWindow) Len() int { return w.count }

// Full reports whether the window has no free entries.
func (w *IssueWindow) Full() bool { return w.count >= len(w.slots) }

// Insert places an instruction into a free entry; it becomes visible to
// wake-up/select at visibleAt. Insert reports false when the window is full.
func (w *IssueWindow) Insert(d *DynInst, visibleAt int64) bool {
	if w.Full() {
		return false
	}
	idx := -1
	for wi, word := range w.occ {
		if word != ^uint64(0) {
			idx = wi*64 + bits.TrailingZeros64(^word)
			break
		}
	}
	if idx < 0 || idx >= len(w.slots) {
		return false // unreachable: Full() above guarantees a real free slot
	}
	w.slots[idx] = iwEntry{inst: d, visibleAt: visibleAt, seq: d.Seq()}
	w.occ[idx/64] |= 1 << (idx % 64)
	w.act[idx/64] |= 1 << (idx % 64)
	d.iwSlot = int32(idx)
	w.count++
	w.Inserted++
	return true
}

// Select performs one wake-up/select cycle at edge time now: among the
// entries that are visible and operand-ready it picks up to width oldest
// instructions that pass the extra predicate (the cores use it for
// load/store ordering) and for which a functional unit is available,
// removes them from the window and returns them. The returned slice is
// reused by the next Select call; callers must consume it before selecting
// again.
func (w *IssueWindow) Select(now, periodPS int64, width int, fu *FUPool, extra func(*DynInst) SelectVerdict) []*DynInst {
	if w.count == 0 || width <= 0 {
		return nil
	}
	// Release due timers into the active set.
	for len(w.timers) > 0 && w.timers[0].t <= now {
		n := w.timers.pop()
		w.act[n.slot/64] |= 1 << (n.slot % 64)
	}

	// Wake-up: examine the (small, transient) active set, moving each
	// entry onto the structure that will next need it: the timer wheel for
	// known future times, a producer's waiter chain for unissued operands,
	// or the ready list once eligibility is proven — eligibility is
	// permanent, so it is established exactly once per entry.
	for wi, word := range w.act {
		for word != 0 {
			idx := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			e := &w.slots[idx]
			if e.inst.iwReady {
				// Spurious re-activation (conservative chain recovery or a
				// stale timer): already on the ready list.
				w.act[wi] &^= 1 << (idx % 64)
				continue
			}
			if e.visibleAt > now {
				w.act[wi] &^= 1 << (idx % 64)
				w.timers.push(timerNode{t: e.visibleAt, slot: int32(idx)})
				continue
			}
			r := e.inst.readyAtCached(w.ExtraWakeupDelayPS)
			if r > now {
				if r < FarFuture {
					w.act[wi] &^= 1 << (idx % 64)
					w.timers.push(timerNode{t: r, slot: int32(idx)})
				} else {
					w.park(idx, e.inst)
				}
				continue
			}
			w.act[wi] &^= 1 << (idx % 64)
			e.inst.iwReady = true
			w.insertReady(readyNode{seq: e.seq, slot: int32(idx)})
		}
	}
	if len(w.ready) == 0 {
		return nil
	}

	// Select: structural checks oldest-first over the ready list, stop at
	// the issue width. Entries that lose only here (unit busy, predicate)
	// simply stay listed and are retried next edge.
	fu.BeginCycle(now)
	picked := w.picked[:0]
	nDrop := 0
	var drop [16]int
	for ri := range w.ready {
		if len(picked) >= width {
			break
		}
		e := &w.slots[w.ready[ri].slot]
		d := e.inst
		if d == nil || e.seq != w.ready[ri].seq {
			// Stale node (only possible after a drop-scratch overflow):
			// the slot was recycled; discard the node.
			if nDrop < len(drop) {
				drop[nDrop] = ri
			}
			nDrop++
			continue
		}
		if extra != nil {
			if v := extra(d); v != SelectOK {
				if v == SelectStop {
					break
				}
				continue
			}
		}
		if !fu.TryReserve(d.Class(), now, periodPS) {
			continue
		}
		picked = append(picked, d)
		w.remove(int(w.ready[ri].slot), d)
		w.wakeWaiters(d)
		if nDrop < len(drop) {
			drop[nDrop] = ri
		}
		nDrop++
	}
	if nDrop > len(drop) {
		w.rebuildReady()
	} else if nDrop > 0 {
		w.deleteReady(drop[:nDrop])
	}
	w.picked = picked
	w.Selected += uint64(len(picked))
	return picked
}

// rebuildReady drops every stale node (drop-scratch overflow path).
func (w *IssueWindow) rebuildReady() {
	out := w.ready[:0]
	for _, n := range w.ready {
		e := &w.slots[n.slot]
		if e.inst != nil && e.seq == n.seq && e.inst.iwReady {
			out = append(out, n)
		}
	}
	w.ready = out
}

// insertReady places a node into the age-sorted ready list.
func (w *IssueWindow) insertReady(n readyNode) {
	s := w.ready
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid].seq < n.seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, readyNode{})
	copy(s[lo+1:], s[lo:])
	s[lo] = n
	w.ready = s
}

// deleteReady removes the picked nodes (ascending indexes; if the pick
// count ever exceeded the scratch, fall back to rebuilding by liveness).
func (w *IssueWindow) deleteReady(idxs []int) {
	s := w.ready
	if len(idxs) == 1 {
		copy(s[idxs[0]:], s[idxs[0]+1:])
		w.ready = s[:len(s)-1]
		return
	}
	out := s[:idxs[0]]
	prev := idxs[0]
	for _, di := range idxs[1:] {
		out = append(out, s[prev+1:di]...)
		prev = di
	}
	out = append(out, s[prev+1:]...)
	w.ready = out
}

// park blocks a slot on its entry's cached unissued producer: the active
// bit clears and the entry chains onto the producer's waiter list. The
// producer is necessarily still in flight (readyAtCached just resolved
// it); if it is picked later this very edge, wakeWaiters re-activates the
// entry in the same call.
func (w *IssueWindow) park(idx int, d *DynInst) {
	blocker := d.arena.Get(d.blockRef)
	if blocker == nil {
		return // cannot happen after a FarFuture readyAtCached; stay active
	}
	d.wNext = blocker.wHead
	blocker.wHead = d.Ref()
	w.act[idx/64] &^= 1 << (idx % 64)
}

// wakeWaiters re-activates every entry parked on d (called when d issues).
// Refs make the walk self-validating: a stale link (its holder recycled)
// would orphan the rest of the chain, so it conservatively re-activates
// everything parked — correctness never depends on chain integrity.
func (w *IssueWindow) wakeWaiters(d *DynInst) {
	ref := d.wHead
	d.wHead = NoRef
	for ref != NoRef {
		c := d.arena.Get(ref)
		if c == nil {
			// Orphaned tail: wake all parked entries instead.
			copy(w.act, w.occ)
			return
		}
		ref = c.wNext
		c.wNext = NoRef
		c.blockRef = NoRef
		if s := c.iwSlot; s >= 0 {
			w.act[s/64] |= 1 << (s % 64)
		}
	}
}

// remove clears a picked slot. A timer node may still reference the slot
// only if the entry was scheduled and not yet due — impossible for a
// picked entry, which had to be active this edge; parked entries likewise
// return through the active set before they can issue.
func (w *IssueWindow) remove(idx int, d *DynInst) {
	w.occ[idx/64] &^= 1 << (idx % 64)
	w.act[idx/64] &^= 1 << (idx % 64)
	w.slots[idx].inst = nil
	d.iwSlot = -1
	d.iwReady = false
	w.count--
}

// Reset empties the window and clears its statistics and wake-up delay,
// leaving it as NewIssueWindow builds it (a reused core's reset). The
// instructions it held belong to the core's arena, which resets them.
func (w *IssueWindow) Reset() {
	clear(w.slots)
	clear(w.occ)
	clear(w.act)
	*w = IssueWindow{
		slots: w.slots, occ: w.occ, act: w.act,
		timers: w.timers[:0], ready: w.ready[:0], picked: w.picked[:0],
	}
}
