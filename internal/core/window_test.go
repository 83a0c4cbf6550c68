package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"flywheel/internal/asm"
	"flywheel/internal/emu"
	"flywheel/internal/pipe"
)

func windowOver(t *testing.T, n int) *oracleWindow {
	t.Helper()
	// A program with n+2 dynamic instructions (li, n addis, halt).
	src := "\tli r1, 0\n"
	for i := 0; i < n; i++ {
		src += "\taddi r1, r1, 1\n"
	}
	src += "\thalt\n"
	prog, err := asm.Assemble("w.s", src)
	if err != nil {
		t.Fatal(err)
	}
	return newOracleWindow(emu.NewStream(emu.New(prog), 0))
}

func TestWindowSequentialNext(t *testing.T) {
	w := windowOver(t, 10)
	for i := 0; i < 12; i++ {
		tr, ok := w.Next()
		if !ok {
			t.Fatalf("Next %d failed", i)
		}
		if tr.Seq != uint64(i) {
			t.Fatalf("Next %d returned seq %d", i, tr.Seq)
		}
	}
	if _, ok := w.Next(); ok {
		t.Error("Next past end succeeded")
	}
	if !w.Drained() {
		t.Error("window not drained at stream end")
	}
}

func TestWindowOutOfOrderConsumption(t *testing.T) {
	w := windowOver(t, 20)
	// Replay-style: consume 5 and 7, leaving 0..4, 6 as holes.
	for _, seq := range []uint64{5, 7} {
		tr, ok := w.At(seq)
		if !ok || tr.Seq != seq {
			t.Fatalf("At(%d) = %v, %v", seq, tr, ok)
		}
		w.Consume(seq)
	}
	if !w.Consumed(5) || w.Consumed(6) {
		t.Error("consumption flags wrong")
	}
	// The oldest unconsumed must be 0, and Next must skip 5 and 7.
	var got []uint64
	for i := 0; i < 6; i++ {
		tr, ok := w.Next()
		if !ok {
			t.Fatal("Next failed")
		}
		got = append(got, tr.Seq)
	}
	want := []uint64{0, 1, 2, 3, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hole traversal = %v, want %v", got, want)
		}
	}
	// Next after the holes resumes at 8.
	tr, _ := w.Next()
	if tr.Seq != 8 {
		t.Errorf("post-hole Next = %d, want 8", tr.Seq)
	}
}

func TestWindowUnconsume(t *testing.T) {
	w := windowOver(t, 10)
	tr, _ := w.Next() // seq 0 consumed
	w.Unconsume(tr)
	back, ok := w.NextUnconsumed()
	if !ok || back.Seq != 0 {
		t.Errorf("unconsumed record not redelivered: %v %v", back, ok)
	}
}

func TestWindowRequeueBelowBase(t *testing.T) {
	w := windowOver(t, 3000)
	// Consume a long prefix to force compaction.
	for i := 0; i < 2500; i++ {
		if _, ok := w.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	if w.base == 0 {
		t.Fatal("compaction never ran; test needs a longer prefix")
	}
	// Hand back a record from far below the base: it must be requeued and
	// served first, in order.
	old := emu.Trace{Seq: 3}
	older := emu.Trace{Seq: 1}
	w.Unconsume(old)
	w.Unconsume(older)
	tr, ok := w.Next()
	if !ok || tr.Seq != 1 {
		t.Fatalf("requeued Next = %v, want seq 1", tr)
	}
	tr, _ = w.Next()
	if tr.Seq != 3 {
		t.Fatalf("second requeued Next = %d, want 3", tr.Seq)
	}
	// After the requeue drains, normal consumption resumes.
	tr, _ = w.Next()
	if tr.Seq != 2500 {
		t.Errorf("post-requeue Next = %d, want 2500", tr.Seq)
	}
}

func TestWindowAtBeyondEnd(t *testing.T) {
	w := windowOver(t, 5)
	if _, ok := w.At(1_000_000); ok {
		t.Error("At past program end succeeded")
	}
	if !w.Drained() {
		t.Error("drained flag not set after failed At")
	}
}

// TestWindowStrandsSkippedRecord runs the consumption pattern of a replay
// that skips a record: everything after the hole is consumed far past it.
// The dense region stays bounded, the hole is served first, and the
// records around it answer as consumed.
func TestWindowStrandsSkippedRecord(t *testing.T) {
	w := windowOver(t, 5000)
	const hole = 10
	for seq := uint64(0); seq < 4000; seq++ {
		if seq == hole {
			continue
		}
		if _, ok := w.At(seq); !ok {
			t.Fatalf("At(%d) failed", seq)
		}
		w.Consume(seq)
	}
	if len(w.dense) > windowRecords {
		t.Errorf("dense region holds %d records, want at most %d", len(w.dense), windowRecords)
	}
	if got := len(w.stranded) - w.sh; got != 1 {
		t.Errorf("%d stranded records, want 1", got)
	}
	if w.base > hole {
		t.Errorf("base %d passed the unconsumed record %d", w.base, hole)
	}
	if w.Consumed(hole) || !w.Consumed(hole+1) || !w.Consumed(hole-1) {
		t.Error("consumed flags wrong around the stranded record")
	}
	if tr, ok := w.At(hole + 1); !ok || tr.Seq != hole+1 {
		t.Errorf("At(consumed %d) = %v, %v; want ok", hole+1, tr, ok)
	}
	for _, want := range []uint64{hole, 4000, 4001} {
		if tr, ok := w.Next(); !ok || tr.Seq != want {
			t.Fatalf("Next = %d, %v; want %d", tr.Seq, ok, want)
		}
	}
	if len(w.stranded) != 0 {
		t.Errorf("stranded list holds %d records after draining", len(w.stranded))
	}
}

// denseWindow is the oracle window without stranded records: it drops only
// its consumed prefix, so an unconsumed record keeps every later one. It is
// the reference FuzzOracleWindow compares oracleWindow with.
type denseWindow struct {
	stream   pipe.InstSource
	base     uint64
	entries  []emu.Trace
	consumed []bool
	prefix   int
	drained  bool
	requeue  []emu.Trace
}

func (w *denseWindow) pull() bool {
	if f, ok := w.stream.(pipe.Filler); ok {
		var buf [64]emu.Trace
		n := f.Fill(buf[:])
		if n == 0 {
			w.drained = true
			return false
		}
		for _, tr := range buf[:n] {
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

func (w *denseWindow) appendRecord(tr emu.Trace) {
	if len(w.entries) == 0 {
		w.base = tr.Seq
	}
	w.entries = append(w.entries, tr)
	w.consumed = append(w.consumed, false)
}

func (w *denseWindow) At(seq uint64) (emu.Trace, bool) {
	if seq < w.base {
		return emu.Trace{}, false
	}
	for len(w.entries) == 0 || w.base+uint64(len(w.entries)) <= seq {
		if !w.pull() {
			return emu.Trace{}, false
		}
	}
	return w.entries[seq-w.base], true
}

func (w *denseWindow) Consumed(seq uint64) bool {
	if seq < w.base {
		return true
	}
	i := seq - w.base
	return i < uint64(len(w.consumed)) && w.consumed[i]
}

func (w *denseWindow) Consume(seq uint64) {
	if seq < w.base {
		return
	}
	i := seq - w.base
	if i < uint64(len(w.consumed)) {
		w.consumed[i] = true
		for w.prefix < len(w.consumed) && w.consumed[w.prefix] {
			w.prefix++
		}
	}
	if w.prefix > 4*margin {
		drop := w.prefix - margin
		w.base += uint64(drop)
		w.prefix -= drop
		w.entries = append(w.entries[:0], w.entries[drop:]...)
		w.consumed = append(w.consumed[:0], w.consumed[drop:]...)
	}
}

func (w *denseWindow) Unconsume(tr emu.Trace) {
	if tr.Seq < w.base {
		at := len(w.requeue)
		for at > 0 && w.requeue[at-1].Seq > tr.Seq {
			at--
		}
		w.requeue = slices.Insert(w.requeue, at, tr)
		return
	}
	if i := tr.Seq - w.base; i < uint64(len(w.consumed)) {
		w.consumed[i] = false
		w.prefix = min(w.prefix, int(i))
	}
}

func (w *denseWindow) NextUnconsumed() (emu.Trace, bool) {
	if len(w.requeue) > 0 {
		return w.requeue[0], true
	}
	for i := w.prefix; i < len(w.entries); i++ {
		if !w.consumed[i] {
			return w.entries[i], true
		}
	}
	oldLen := len(w.entries)
	if !w.pull() {
		return emu.Trace{}, false
	}
	return w.entries[oldLen], true
}

func (w *denseWindow) Next() (emu.Trace, bool) {
	if len(w.requeue) > 0 {
		tr := w.requeue[0]
		w.requeue = slices.Delete(w.requeue, 0, 1)
		return tr, true
	}
	tr, ok := w.NextUnconsumed()
	if ok {
		w.Consume(tr.Seq)
	}
	return tr, ok
}

func (w *denseWindow) Drained() bool { return w.drained }

func (w *denseWindow) reopen() {
	w.drained = false
	w.entries = w.entries[:0]
	w.consumed = w.consumed[:0]
	w.base = 0
	w.prefix = 0
}

// gappedSource is a synthetic record stream in segments: sequence numbers
// jump between segments (a sampled run's fast-forward gaps), and the
// source reports its end at each segment boundary until resume is called.
// batchSource delivers the same stream through pipe.Filler.
type gappedSource struct {
	seq, end uint64 // next record; end of the current segment
	left     int    // segments after the current one
	gap      uint64
}

const segmentRecords = 6000

func record(seq uint64) emu.Trace {
	return emu.Trace{Seq: seq, PC: 0x1000 + 4*(seq%97), NextPC: 0x1004 + 4*(seq%97), Addr: seq * 8, Taken: seq%3 == 0}
}

func (s *gappedSource) Next() (emu.Trace, bool) {
	if s.seq == s.end {
		return emu.Trace{}, false
	}
	s.seq++
	return record(s.seq - 1), true
}

// resume starts the next segment, if any, after the gap.
func (s *gappedSource) resume() {
	if s.seq == s.end && s.left > 0 {
		s.left--
		s.seq += s.gap
		s.end = s.seq + segmentRecords
	}
}

type batchSource struct{ *gappedSource }

func (s batchSource) Fill(buf []emu.Trace) int {
	n := 0
	for n < len(buf) {
		tr, ok := s.Next()
		if !ok {
			break
		}
		buf[n] = tr
		n++
	}
	return n
}

// FuzzOracleWindow drives oracleWindow and the dense reference with the same
// operations over a gapped stream and requires every answer to agree. The
// operations cluster around a cursor, the way replay pairs records after a
// resume point, and can jump or sweep it far ahead of unconsumed records,
// which strands them. At on a consumed record below the dense region may
// return the record with only its sequence number set.
func FuzzOracleWindow(f *testing.F) {
	f.Add([]byte{0, 8, 200, 8, 200, 8, 200, 4, 4, 5, 7, 1, 3})
	f.Add([]byte{1, 6, 250, 8, 255, 8, 255, 8, 255, 7, 4, 4, 3, 2, 3, 9, 9, 0, 2})
	f.Add([]byte{0, 8, 3, 6, 90, 8, 255, 8, 255, 8, 255, 3, 40, 3, 80, 5, 4, 9, 4, 4, 4, 4})
	f.Fuzz(checkWindowOps)
}

// TestWindowMatchesDense runs FuzzOracleWindow's comparison over seeded
// random operation sequences, so every test run covers every path without
// the fuzzing engine.
func TestWindowMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	ops := make([]byte, 400)
	for range 200 {
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		checkWindowOps(t, ops)
	}
}

// checkWindowOps is FuzzOracleWindow's body: ops[0] picks a batched or a
// one-record source, and each later byte is an operation whose argument
// is the byte after it.
func checkWindowOps(t *testing.T, ops []byte) {
	if len(ops) == 0 {
		return
	}
	newSrc := func() (*gappedSource, pipe.InstSource) {
		s := &gappedSource{seq: 1000, end: 1000 + segmentRecords, left: 2, gap: 50_000}
		if ops[0]&1 == 1 {
			return s, batchSource{s}
		}
		return s, s
	}
	gs, src := newSrc()
	rs, rsrc := newSrc()
	got := newOracleWindow(src)
	ref := &denseWindow{stream: rsrc}
	cursor := uint64(1000)
	arg := func(i int) uint64 {
		if i+1 < len(ops) {
			return uint64(ops[i+1])
		}
		return 0
	}
	at := func(i int, seq uint64) {
		if len(ref.entries) == 0 && seq < rs.seq {
			return // no record anchors the window yet
		}
		wasConsumed := ref.Consumed(seq)
		g, gok := got.At(seq)
		r, rok := ref.At(seq)
		if gok != rok || (gok && g != r && (!wasConsumed || g.Seq != seq)) {
			t.Fatalf("op %d: At(%d) = %v, %v; reference %v, %v", i, seq, g, gok, r, rok)
		}
	}
	for i := 1; i < len(ops); i++ {
		op, k := ops[i]%10, arg(i)
		seq := cursor + k%32
		switch op {
		case 0: // At
			at(i, seq)
		case 1: // Consume
			got.Consume(seq)
			ref.Consume(seq)
		case 2: // Consumed
			if g, r := got.Consumed(seq), ref.Consumed(seq); g != r {
				t.Fatalf("op %d: Consumed(%d) = %v; reference %v", i, seq, g, r)
			}
		case 3: // Unconsume a record at or behind the cursor
			if back := k * 5; back <= cursor && cursor-back >= 1000 {
				s := cursor - back
				got.Unconsume(record(s))
				ref.Unconsume(record(s))
			}
		case 4, 5: // Next, NextUnconsumed
			var g, r emu.Trace
			var gok, rok bool
			if op == 4 {
				g, gok = got.Next()
				r, rok = ref.Next()
			} else {
				g, gok = got.NextUnconsumed()
				r, rok = ref.NextUnconsumed()
			}
			if g != r || gok != rok {
				t.Fatalf("op %d (%d): %v, %v; reference %v, %v", i, op, g, gok, r, rok)
			}
			if gok {
				cursor = g.Seq
			}
		case 6: // jump ahead
			cursor += 16 * k
		case 7: // jump back
			cursor = max(cursor-min(cursor, 16*k), 1000)
		case 8: // sweep: consume a run of records (every seventh left when k is odd)
			for j := uint64(0); j < 4*k; j++ {
				if (cursor+j)%7 != 0 || k%2 == 0 {
					got.Consume(cursor + j)
					ref.Consume(cursor + j)
				}
			}
			cursor += 4 * k
			at(i, cursor)
		case 9: // end of a detailed window: resume the stream past its gap
			if !ref.Drained() {
				break // the core reopens only a drained window
			}
			got.reopen()
			ref.reopen()
			gs.resume()
			rs.resume()
			cursor = rs.seq
		}
		if got.Drained() != ref.Drained() {
			t.Fatalf("op %d: Drained = %v; reference %v", i, got.Drained(), ref.Drained())
		}
	}
	// Drain both: the rest of the stream must come out in the same order.
	for {
		g, gok := got.Next()
		r, rok := ref.Next()
		if g != r || gok != rok {
			t.Fatalf("drain: %v, %v; reference %v, %v", g, gok, r, rok)
		}
		if !gok {
			return
		}
	}
}
