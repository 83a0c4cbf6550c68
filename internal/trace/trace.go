// Package trace implements the record-once, replay-many dynamic-trace
// cache. A design-space sweep evaluates the same workload at many timing
// points — architectures, clock boosts, technology nodes — whose retired
// instruction streams are identical: only the timing differs. The first run
// of a workload therefore records the functional emulator's post-warm-up
// trace into a compact columnar buffer while its own timing core consumes
// it (the recorder is a pass-through), and every other grid point replays
// the recording from memory instead of re-executing the emulator.
//
// Only a complete recording replays. A run that starts while its
// workload is still being recorded emulates live (a bypass), so a reader
// reads an immutable recording and never waits. Aborting a recording (timing-core error, memory-cap overflow)
// fails it, and the next run of the key records afresh.
//
// Shorter instruction budgets replay a prefix of a longer recording; the
// per-workload cache layer (cache.go) keys usability on the recorded
// ceiling, so one recording at the sweep's largest budget serves every
// smaller budget in the grid. Recordings live only in process memory.
//
// Where the records come from never changes a result: a replay delivers
// exactly the records live emulation would, and Reader.Skip (seek.go) is
// only a faster way to pass over records a consumer would otherwise read
// and discard.
package trace

import (
	"sync"

	"flywheel/internal/emu"
)

// recState is the lifecycle of a recording.
type recState uint8

const (
	stateRecording recState = iota
	stateDone
	stateFailed
)

// Recording is one workload's recorded dynamic trace: an append-only
// sequence of immutable columnar chunks plus completion metadata. One
// goroutine records (through a Recorder); once the recording is done, any
// number of goroutines replay it concurrently (through Readers).
type Recording struct {
	startSeq uint64 // Seq of the first record (the warm point's retired count)
	// ceiling is the instruction budget the recording was made under
	// (0 = run to completion). A recording that ended by halt serves any
	// budget; a truncated one serves budgets up to the ceiling.
	ceiling uint64

	mu     sync.Mutex
	chunks []*chunk
	total  uint64 // records published (sum over chunks)
	bytes  int64  // resident encoded bytes (published chunks)
	st     recState
	halted bool  // the machine halted before the ceiling (complete program)
	err    error // stream error observed while recording, replayed to full readers

	// onPublish, set by the owning cache, accounts published bytes and
	// vetoes further storage when the cache's memory cap is exceeded.
	onPublish func(delta int64) bool
}

// newRecording returns an empty in-progress recording.
func newRecording(startSeq, ceiling uint64) *Recording {
	return &Recording{startSeq: startSeq, ceiling: ceiling}
}

// StartSeq returns the sequence number of the first record.
func (r *Recording) StartSeq() uint64 { return r.startSeq }

// Records returns the number of records published so far.
func (r *Recording) Records() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Bytes returns the resident encoded size of the published chunks.
func (r *Recording) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// Complete reports whether the recording finished successfully, and whether
// the program halted within it.
func (r *Recording) Complete() (done, halted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st == stateDone, r.halted
}

// state reads the recording's lifecycle state.
func (r *Recording) state() recState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// usableFor reports whether the recording is done and a replay with the
// given budget (0 = run to completion) can be served entirely from it.
func (r *Recording) usableFor(budget uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.st != stateDone:
		return false
	case r.halted || r.ceiling == 0:
		return true // the recording holds the whole program or run
	}
	// Truncated at the ceiling: the budget must fit.
	return budget > 0 && budget <= r.ceiling
}

// publish appends a finished chunk. It returns false when the cache's
// memory cap vetoed the publication; the caller must then abort the
// recording.
func (r *Recording) publish(c *chunk) bool {
	if c == nil || c.n == 0 {
		return true
	}
	size := c.sizeBytes()
	if r.onPublish != nil && !r.onPublish(size) {
		return false
	}
	r.mu.Lock()
	r.chunks = append(r.chunks, c)
	r.total += uint64(c.n)
	r.bytes += size
	r.mu.Unlock()
	return true
}

// markDone finalizes a successful recording.
func (r *Recording) markDone(halted bool, streamErr error) {
	r.mu.Lock()
	r.st = stateDone
	r.halted = halted
	r.err = streamErr
	r.mu.Unlock()
}

// fail marks the recording unusable; it is never replayed.
func (r *Recording) fail() {
	r.mu.Lock()
	r.st = stateFailed
	r.mu.Unlock()
}

// Recorder adapts a live emulator stream into the same Next/Fill iterator
// contract (pipe.InstSource / pipe.Filler) while teeing every delivered
// record into a Recording. It is a strict pass-through: the consuming
// timing core observes exactly the records the bare stream would have
// produced, in the same order, with the same early-halt behavior.
type Recorder struct {
	src  *emu.Stream
	rec  *Recording
	enc  encoder
	dead bool // recording aborted (cap veto or contract break); keep passing through
}

// NewRecorder wraps the stream, recording into rec.
func NewRecorder(rec *Recording, src *emu.Stream) *Recorder {
	return &Recorder{src: src, rec: rec, enc: encoder{prog: src.Machine().Prog}}
}

// observe encodes one delivered record.
func (t *Recorder) observe(tr emu.Trace) {
	if t.dead {
		return
	}
	full, err := t.enc.appendRecord(tr)
	if err != nil {
		// A record the encoding cannot reconstruct (see appendRecord):
		// drop the recording, never the consumer's stream.
		t.abort()
		return
	}
	if full != nil && !t.rec.publish(full) {
		t.abort()
	}
}

func (t *Recorder) abort() {
	t.dead = true
	t.rec.fail()
}

// Next delivers the next record (pipe.InstSource).
func (t *Recorder) Next() (emu.Trace, bool) {
	tr, ok := t.src.Next()
	if ok {
		t.observe(tr)
	}
	return tr, ok
}

// Fill batch-delivers records into the caller's buffer (pipe.Filler).
func (t *Recorder) Fill(buf []emu.Trace) int {
	n := t.src.Fill(buf)
	for _, tr := range buf[:n] {
		t.observe(tr)
	}
	return n
}

// Err reports the underlying stream's terminating error, if any.
func (t *Recorder) Err() error { return t.src.Err() }

// Finish completes the recording after the consuming run ended. Records
// the consumer did not pull (it stopped early on a timing-model error) are
// drained from the live stream so the recording still covers the full
// budget, then the final partial chunk is published and the recording is
// marked done. Harmless to call on an already-aborted recorder.
func (t *Recorder) Finish() {
	if !t.dead {
		var buf [256]emu.Trace
		for {
			n := t.src.Fill(buf[:])
			for _, tr := range buf[:n] {
				t.observe(tr)
			}
			if n == 0 || t.dead {
				break
			}
		}
	}
	if t.dead {
		return
	}
	if !t.rec.publish(t.enc.take()) {
		t.abort()
		return
	}
	t.rec.markDone(t.src.Machine().Halted, t.src.Err())
}

// Abort drops the recording (the consuming run failed in a way that makes
// draining pointless). The pass-through contract is unaffected.
func (t *Recorder) Abort() { t.abort() }

// Reader replays a complete recording through the Next/Fill iterator
// contract. The recording no longer changes, so the reader takes no lock:
// the Flywheel core's oracle window pulls one record at a time, and Next
// in particular costs no more than an array read.
type Reader struct {
	rec   *Recording
	limit uint64 // max records to deliver; 0 = all recorded
	end   uint64 // records this reader delivers: min(limit, recorded)
	count uint64 // records delivered

	ci  int // index of the chunk under the cursor
	dec decoder
}

// NewReader returns a replay cursor over the complete recording rec
// delivering at most limit records (0 = everything recorded).
func NewReader(rec *Recording, limit uint64) *Reader {
	end := rec.total
	if limit > 0 && limit < end {
		end = limit
	}
	return &Reader{rec: rec, limit: limit, end: end}
}

// advanceChunk positions the decoder on the cursor's chunk. The cursor is
// known to be before the reader's end.
func (r *Reader) advanceChunk() {
	if r.dec.c != nil {
		r.ci++
	}
	r.dec = newDecoder(r.rec.chunks[r.ci])
}

// Fill batch-delivers records into the caller's buffer (pipe.Filler). Like
// emu.Stream.Fill it returns the records produced before any terminating
// condition: limit, end of recording, or a recorded mid-stream fault.
func (r *Reader) Fill(buf []emu.Trace) int {
	n := 0
	for n < len(buf) && r.count < r.end {
		if r.dec.c == nil || r.dec.i >= r.dec.c.n {
			r.advanceChunk()
		}
		stop := min(uint64(r.dec.c.n-r.dec.i), r.end-r.count, uint64(len(buf)-n))
		for k := uint64(0); k < stop; k++ {
			buf[n] = r.dec.next()
			n++
		}
		r.count += stop
	}
	return n
}

// Next delivers one record (pipe.InstSource). The common case — the next
// record sits in the current chunk, before the end — touches no buffer.
func (r *Reader) Next() (emu.Trace, bool) {
	if r.count < r.end && r.dec.c != nil && r.dec.i < r.dec.c.n {
		r.count++
		return r.dec.next(), true
	}
	var one [1]emu.Trace
	if r.Fill(one[:]) == 0 {
		return emu.Trace{}, false
	}
	return one[0], true
}

// Err reports the recorded stream's own fault once the reader consumed the
// full recording. A reader that stopped at its own limit reports nil,
// mirroring a budgeted live stream.
func (r *Reader) Err() error {
	if r.limit > 0 && r.count >= r.limit || r.count < r.rec.total {
		return nil
	}
	return r.rec.err
}
