package core

import (
	"cmp"
	"slices"

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
//
// The window holds the records from its logical base on. Every record
// below the base is consumed; a record handed back from below it goes to
// the requeue. The base trails the oldest unconsumed record (see
// compact), so one record a replay leaves unconsumed would pin every later
// record in memory. The window therefore stores its records in two parts:
// a dense region, every record from dbase to the newest one pulled with a
// consumed flag each, which is cut margin records behind the newest
// consumed record; and the stranded list, the unconsumed records a cut
// left behind, in sequence order. A record between the base and dbase
// that is not on the stranded list is consumed.
type oracleWindow struct {
	stream pipe.InstSource
	// filler batches stream pulls when the source supports it (both
	// *emu.Stream and the trace cache's recorder/reader do), amortizing
	// the per-record call overhead of the one-at-a-time pull path.
	filler pipe.Filler
	fbuf   []emu.Trace
	base   uint64 // logical base: every record below it is consumed
	// dense holds every buffered record from sequence number dbase on.
	dbase    uint64
	dense    []emu.Trace
	consumed []bool
	// prefix counts dense's leading consumed records, maintained
	// incrementally so consuming and compacting stay O(1) amortized per
	// record instead of rescanning the prefix on every consume.
	prefix int
	hi     uint64 // one past the newest consumed record of the dense region
	// stranded[sh:] holds the unconsumed records below dbase in ascending
	// sequence order. The front-end drains them oldest first, which only
	// advances sh.
	stranded []emu.Trace
	sh       int
	drained  bool
	// requeue holds records handed back by a front-end squash after the
	// base passed them (divergences can scatter consumed holes across a
	// wide range). Served oldest-first before the window.
	requeue []emu.Trace
}

// windowRecords is the dense region's capacity. compact keeps the region
// below 4*margin records up to the newest consumed one, plus what is
// buffered past it (the paper kernels peak near 700), so the region does
// not grow past it. append still grows it when a run needs more.
const windowRecords = 1024

// maxKeptStranded caps the stranded list a reused core keeps: a list grown
// past it by a long run is dropped on reset.
const maxKeptStranded = windowRecords

// debugWindow, when set by a test, is called whenever the dense region or
// the stranded list grows.
var debugWindow func(w *oracleWindow)

func newOracleWindow(stream pipe.InstSource) *oracleWindow {
	w := &oracleWindow{}
	w.reset(stream)
	return w
}

// reset empties the window and binds it to stream: the state
// newOracleWindow(stream) builds. A reused core's window keeps its
// buffers, the stranded list up to maxKeptStranded.
func (w *oracleWindow) reset(stream pipe.InstSource) {
	dense, consumed := w.dense[:0], w.consumed[:0]
	if cap(dense) < windowRecords {
		dense, consumed = make([]emu.Trace, 0, windowRecords), make([]bool, 0, windowRecords)
	}
	stranded := w.stranded[:0]
	if cap(stranded) > maxKeptStranded {
		stranded = nil
	}
	*w = oracleWindow{
		stream: stream, fbuf: w.fbuf,
		dense: dense, consumed: consumed, stranded: stranded, requeue: w.requeue[:0],
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
	} else {
		tr, ok := w.stream.Next()
		if !ok {
			w.drained = true
			return false
		}
		w.appendRecord(tr)
	}
	if debugWindow != nil {
		debugWindow(w)
	}
	return true
}

// appendRecord buffers one stream record. The window is anchored at the
// first record's sequence number — warm-up fast-forwarding means dynamic
// streams rarely start at zero.
func (w *oracleWindow) appendRecord(tr emu.Trace) {
	if len(w.dense) == 0 {
		w.base, w.dbase = tr.Seq, tr.Seq
	}
	w.dense = append(w.dense, tr)
	w.consumed = append(w.consumed, false)
}

// fillTo extends the window so that seq is buffered; it reports false when
// the stream ends first.
func (w *oracleWindow) fillTo(seq uint64) bool {
	for len(w.dense) == 0 || w.dbase+uint64(len(w.dense)) <= seq {
		if len(w.dense)+len(w.fbuf) >= windowRecords && w.hi > w.dbase+margin {
			// Make room rather than grow: a replay can pair far ahead of
			// the newest consumed record, past where compact cuts.
			w.cut(w.hi - margin)
		}
		if !w.pull() {
			return false
		}
	}
	return true
}

// findStranded returns the index of seq in the stranded list, or where it
// would be inserted, and whether it is there.
func (w *oracleWindow) findStranded(seq uint64) (int, bool) {
	i, ok := slices.BinarySearchFunc(w.stranded[w.sh:], seq, func(tr emu.Trace, seq uint64) int {
		return cmp.Compare(tr.Seq, seq)
	})
	return w.sh + i, ok
}

// At returns the record with the given sequence number, extending the
// window as needed. ok is false past the end of the program. A consumed
// record below the dense region is no longer stored: At reports it with
// only its sequence number set (the core never pairs a consumed record).
func (w *oracleWindow) At(seq uint64) (emu.Trace, bool) {
	if seq < w.base {
		return emu.Trace{}, false // already compacted away: caller bug
	}
	if seq < w.dbase {
		if i, ok := w.findStranded(seq); ok {
			return w.stranded[i], true
		}
		return emu.Trace{Seq: seq}, true
	}
	if !w.fillTo(seq) {
		return emu.Trace{}, false
	}
	return w.dense[seq-w.dbase], true
}

// Consumed reports whether seq has been consumed already.
func (w *oracleWindow) Consumed(seq uint64) bool {
	if seq < w.base {
		return true
	}
	if seq < w.dbase {
		_, stranded := w.findStranded(seq)
		return !stranded
	}
	i := seq - w.dbase
	return i < uint64(len(w.consumed)) && w.consumed[i]
}

// Consume marks seq as delivered to the machine.
func (w *oracleWindow) Consume(seq uint64) {
	if seq < w.base {
		return
	}
	if seq < w.dbase {
		if i, ok := w.findStranded(seq); ok {
			w.removeStranded(i)
		}
	} else if i := seq - w.dbase; i < uint64(len(w.consumed)) {
		w.consumed[i] = true
		if int(i) == w.prefix {
			for w.prefix < len(w.consumed) && w.consumed[w.prefix] {
				w.prefix++
			}
		}
		w.hi = max(w.hi, seq+1)
	}
	w.compact()
}

// Unconsume returns a record to the window (front-end squash on a mode
// switch). Records below the base go onto the requeue list and are served
// back, oldest first, before the window.
func (w *oracleWindow) Unconsume(tr emu.Trace) {
	switch {
	case tr.Seq < w.base:
		// Insert in ascending sequence order (the list stays tiny: at most
		// one front queue of entries).
		at := len(w.requeue)
		for at > 0 && w.requeue[at-1].Seq > tr.Seq {
			at--
		}
		w.requeue = append(w.requeue, emu.Trace{})
		copy(w.requeue[at+1:], w.requeue[at:])
		w.requeue[at] = tr
	case tr.Seq < w.dbase:
		if i, ok := w.findStranded(tr.Seq); !ok {
			w.insertStranded(i, tr)
		}
	default:
		if i := tr.Seq - w.dbase; i < uint64(len(w.consumed)) {
			w.consumed[i] = false
			if int(i) < w.prefix {
				w.prefix = int(i)
			}
		}
	}
}

// NextUnconsumed returns the oldest unconsumed record without consuming it.
func (w *oracleWindow) NextUnconsumed() (emu.Trace, bool) {
	if len(w.requeue) > 0 {
		return w.requeue[0], true
	}
	if w.sh < len(w.stranded) {
		return w.stranded[w.sh], true
	}
	// Entries below the consumed prefix need no scan.
	for i := w.prefix; i < len(w.dense); i++ {
		if !w.consumed[i] {
			return w.dense[i], true
		}
	}
	// Everything buffered was consumed: pull fresh records. A batched pull
	// may append several; the oldest fresh record is the next to deliver.
	oldLen := len(w.dense)
	if !w.pull() {
		return emu.Trace{}, false
	}
	return w.dense[oldLen], true
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
	w.dense = w.dense[:0]
	w.consumed = w.consumed[:0]
	w.stranded = w.stranded[:0]
	w.base, w.dbase, w.hi = 0, 0, 0
	w.prefix, w.sh = 0, 0
}

// margin is how many consumed records the window keeps before the oldest
// unconsumed record (for the base) and before the newest consumed record
// (for the dense region). It must exceed everything a mode switch can
// hand back to the window: the front queue, the fetcher lookahead and one
// fetch group.
const margin = 128

// compact bounds the window. The base moves margin records behind the
// oldest unconsumed record once that record is 4*margin past it; the
// dense region is cut the same way behind its newest consumed record, so
// its length stays bounded however old the oldest unconsumed record is.
func (w *oracleWindow) compact() {
	if w.hi > w.dbase+4*margin {
		w.cut(w.hi - margin)
	}
	oldest := w.dbase + uint64(w.prefix)
	if w.sh < len(w.stranded) {
		oldest = w.stranded[w.sh].Seq
	}
	if oldest-w.base > 4*margin {
		w.base = oldest - margin
	}
}

// cut moves the dense region's start to seq: the unconsumed records below
// it join the stranded list, and the consumed ones are dropped.
func (w *oracleWindow) cut(seq uint64) {
	n := int(seq - w.dbase)
	if w.prefix < n {
		if w.sh > 0 && 2*w.sh >= len(w.stranded) {
			w.stranded = w.stranded[:copy(w.stranded, w.stranded[w.sh:])]
			w.sh = 0
		}
		for i := w.prefix; i < n; i++ {
			if !w.consumed[i] {
				w.stranded = append(w.stranded, w.dense[i])
			}
		}
		if debugWindow != nil {
			debugWindow(w)
		}
	}
	w.dense = append(w.dense[:0], w.dense[n:]...)
	w.consumed = append(w.consumed[:0], w.consumed[n:]...)
	w.dbase = seq
	if w.prefix >= n {
		w.prefix -= n
	} else {
		w.prefix = 0
		for w.prefix < len(w.consumed) && w.consumed[w.prefix] {
			w.prefix++
		}
	}
}

// removeStranded drops the stranded record at index i (it was consumed),
// moving whichever side of it is shorter.
func (w *oracleWindow) removeStranded(i int) {
	if i-w.sh < len(w.stranded)-1-i {
		copy(w.stranded[w.sh+1:i+1], w.stranded[w.sh:i])
		w.sh++
	} else {
		w.stranded = slices.Delete(w.stranded, i, i+1)
	}
	if w.sh == len(w.stranded) {
		w.stranded, w.sh = w.stranded[:0], 0
	}
}

// insertStranded puts tr, a consumed record handed back from below the
// dense region, into the stranded list at index i.
func (w *oracleWindow) insertStranded(i int, tr emu.Trace) {
	if w.sh > 0 {
		copy(w.stranded[w.sh-1:i-1], w.stranded[w.sh:i])
		w.sh--
		w.stranded[i-1] = tr
	} else {
		w.stranded = slices.Insert(w.stranded, i, tr)
	}
	if debugWindow != nil {
		debugWindow(w)
	}
}
