package core

import (
	"flywheel/internal/emu"
	"flywheel/internal/pipe"
)

// oracleWindow buffers the architectural oracle's dynamic instruction
// stream so it can be consumed out of program order. Trace replay pairs
// Execution Cache slots (stored in issue order) with oracle records by
// dynamic sequence number; the front-end path consumes the oldest
// unconsumed record. When a replay aborts mid-trace, the already-executed
// (consumed) records stay consumed and the skipped ones are delivered to
// the restarted front-end in order.
type oracleWindow struct {
	stream pipe.InstSource
	// filler batches stream pulls when the source supports it (both
	// *emu.Stream and the trace cache's recorder/reader do), amortizing
	// the per-record call overhead of the one-at-a-time pull path.
	filler   pipe.Filler
	fbuf     []emu.Trace
	base     uint64 // sequence number of entries[0]
	entries  []emu.Trace
	consumed []bool
	// prefix counts the leading fully consumed entries, maintained
	// incrementally so consuming and compacting stay O(1) amortized per
	// record instead of rescanning the prefix on every consume.
	prefix  int
	drained bool
	// requeue holds records handed back by a front-end squash after their
	// window slots were compacted away (divergences can scatter consumed
	// holes across a wide range). Served oldest-first before the window.
	requeue []emu.Trace
}

// windowRecords is the window's initial capacity. It covers the
// compaction bound (compact keeps the window below 4*margin consumed
// records plus what is buffered past them; the paper kernels peak near
// 700), so a run does not regrow the window by doubling from empty.
// append still grows past it when a run needs more.
const windowRecords = 1024

func newOracleWindow(stream pipe.InstSource) *oracleWindow {
	w := &oracleWindow{}
	w.reset(stream)
	return w
}

// maxKeptRecords caps the window a reused core keeps. A run whose replay
// leaves an early record unconsumed buffers every record after it (at 40k
// instructions turb3d's window reaches 38,400 records, 1.8 MB); keeping
// that buffer spares the next such run the regrowth, but a window grown by
// a much longer run is dropped, so an idle core never holds more than
// 3 MB of it.
const maxKeptRecords = 64 * windowRecords

// reset empties the window and binds it to stream: the state
// newOracleWindow(stream) builds. A reused core's window keeps its buffers
// up to maxKeptRecords.
func (w *oracleWindow) reset(stream pipe.InstSource) {
	entries, consumed := w.entries[:0], w.consumed[:0]
	if cap(entries) < windowRecords || cap(entries) > maxKeptRecords {
		entries, consumed = make([]emu.Trace, 0, windowRecords), make([]bool, 0, windowRecords)
	}
	*w = oracleWindow{
		stream: stream, fbuf: w.fbuf,
		entries: entries, consumed: consumed, requeue: w.requeue[:0],
	}
	if f, ok := stream.(pipe.Filler); ok {
		w.filler = f
		if w.fbuf == nil {
			w.fbuf = make([]emu.Trace, 64)
		}
	}
}

// pull buffers at least one more record from the stream, batched when the
// source supports it. Over-pulling only moves records into the window
// earlier; every consumer reads through the window.
func (w *oracleWindow) pull() bool {
	if w.filler != nil {
		n := w.filler.Fill(w.fbuf)
		if n == 0 {
			w.drained = true
			return false
		}
		for _, tr := range w.fbuf[:n] {
			w.appendRecord(tr)
		}
		return true
	}
	tr, ok := w.stream.Next()
	if !ok {
		w.drained = true
		return false
	}
	w.appendRecord(tr)
	return true
}

// appendRecord buffers one stream record. The window is anchored at the
// first record's sequence number — warm-up fast-forwarding means dynamic
// streams rarely start at zero.
func (w *oracleWindow) appendRecord(tr emu.Trace) {
	if len(w.entries) == 0 {
		w.base = tr.Seq
	}
	w.entries = append(w.entries, tr)
	w.consumed = append(w.consumed, false)
}

// fillTo extends the window so that seq is buffered; it reports false when
// the stream ends first.
func (w *oracleWindow) fillTo(seq uint64) bool {
	for len(w.entries) == 0 || w.base+uint64(len(w.entries)) <= seq {
		if !w.pull() {
			return false
		}
	}
	return true
}

// At returns the record with the given sequence number, extending the
// window as needed. ok is false past the end of the program.
func (w *oracleWindow) At(seq uint64) (emu.Trace, bool) {
	if seq < w.base {
		return emu.Trace{}, false // already compacted away: caller bug
	}
	if !w.fillTo(seq) {
		return emu.Trace{}, false
	}
	return w.entries[seq-w.base], true
}

// Consumed reports whether seq has been consumed already.
func (w *oracleWindow) Consumed(seq uint64) bool {
	if seq < w.base {
		return true
	}
	i := seq - w.base
	return i < uint64(len(w.consumed)) && w.consumed[i]
}

// Consume marks seq as delivered to the machine.
func (w *oracleWindow) Consume(seq uint64) {
	if seq < w.base {
		return
	}
	i := seq - w.base
	if i < uint64(len(w.consumed)) {
		w.consumed[i] = true
		if int(i) == w.prefix {
			for w.prefix < len(w.consumed) && w.consumed[w.prefix] {
				w.prefix++
			}
		}
	}
	w.compact()
}

// Unconsume returns a record to the window (front-end squash on a mode
// switch). Records whose slots were already compacted away go onto the
// requeue list and are served back, oldest first, before the main window.
func (w *oracleWindow) Unconsume(tr emu.Trace) {
	if tr.Seq < w.base {
		// Insert in ascending sequence order (the list stays tiny: at most
		// one front queue of entries).
		at := len(w.requeue)
		for at > 0 && w.requeue[at-1].Seq > tr.Seq {
			at--
		}
		w.requeue = append(w.requeue, emu.Trace{})
		copy(w.requeue[at+1:], w.requeue[at:])
		w.requeue[at] = tr
		return
	}
	if i := tr.Seq - w.base; i < uint64(len(w.consumed)) {
		w.consumed[i] = false
		if int(i) < w.prefix {
			w.prefix = int(i)
		}
	}
}

// NextUnconsumed returns the oldest unconsumed record without consuming it.
func (w *oracleWindow) NextUnconsumed() (emu.Trace, bool) {
	if len(w.requeue) > 0 {
		return w.requeue[0], true
	}
	// Entries below the consumed prefix need no scan.
	for i := w.prefix; i < len(w.entries); i++ {
		if !w.consumed[i] {
			return w.entries[i], true
		}
	}
	// Everything buffered was consumed: pull fresh records. A batched pull
	// may append several; the oldest fresh record is the next to deliver.
	oldLen := len(w.entries)
	if !w.pull() {
		return emu.Trace{}, false
	}
	return w.entries[oldLen], true
}

// Next implements the pipe.InstSource contract for the front-end fetcher:
// deliver and consume the oldest unconsumed record.
func (w *oracleWindow) Next() (emu.Trace, bool) {
	if len(w.requeue) > 0 {
		tr := w.requeue[0]
		copy(w.requeue, w.requeue[1:])
		w.requeue = w.requeue[:len(w.requeue)-1]
		return tr, true
	}
	tr, ok := w.NextUnconsumed()
	if ok {
		w.Consume(tr.Seq)
	}
	return tr, ok
}

// Drained reports that the underlying stream ended.
func (w *oracleWindow) Drained() bool { return w.drained }

// reopen clears the end-of-stream latch and drops the buffered window so
// pulls resume from the source. Sampled execution calls it between
// detailed windows, after the core halted on a gated (empty) source: at
// that point every buffered entry has been consumed and the requeue is
// empty, and the next record's sequence number is discontinuous with the
// old window (the fast-forward gap), so the buffer must re-anchor at it.
func (w *oracleWindow) reopen() {
	w.drained = false
	w.entries = w.entries[:0]
	w.consumed = w.consumed[:0]
	w.base = 0
	w.prefix = 0
}

// compact drops the fully consumed prefix to bound memory. The retained
// margin must exceed everything a mode switch can hand back to the window:
// the front queue, the fetcher lookahead and one fetch group.
func (w *oracleWindow) compact() {
	const margin = 128
	if w.prefix > 4*margin {
		drop := w.prefix - margin
		w.base += uint64(drop)
		w.prefix -= drop
		w.entries = append(w.entries[:0], w.entries[drop:]...)
		w.consumed = append(w.consumed[:0], w.consumed[drop:]...)
	}
}
