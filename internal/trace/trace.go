// Package trace implements the record-once, replay-many dynamic-trace
// cache. A design-space sweep evaluates the same workload at many timing
// points — architectures, clock boosts, technology nodes — whose retired
// instruction streams are identical: only the timing differs. The first run
// of a workload therefore records the functional emulator's post-warm-up
// trace into a compact columnar buffer while its own timing core consumes
// it (the recorder is a pass-through), and every other grid point replays
// the recording from memory instead of re-executing the emulator.
//
// Recordings are chunked (see encode.go): the recorder publishes each
// filled chunk immediately, so concurrent readers replay the prefix while
// recording is still in progress, sleeping only when they catch up to the
// recording head. A reader never deadlocks on an abandoned recording:
// aborting a recording (timing-core error, memory-cap overflow) fails it,
// and failed-recording readers fall back to live functional emulation,
// fast-forwarded past the records they already consumed.
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
	"fmt"
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
// goroutine records (through a Recorder); any number of goroutines replay
// concurrently (through Readers).
type Recording struct {
	key      string
	startSeq uint64 // Seq of the first record (the warm point's retired count)
	// ceiling is the instruction budget the recording was made under
	// (0 = run to completion). A recording that ended by halt serves any
	// budget; a truncated one serves budgets up to the ceiling.
	ceiling uint64

	mu     sync.Mutex
	cond   *sync.Cond
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
func newRecording(key string, startSeq, ceiling uint64) *Recording {
	r := &Recording{key: key, startSeq: startSeq, ceiling: ceiling}
	r.cond = sync.NewCond(&r.mu)
	return r
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

// usableFor reports whether a replay with the given budget (0 = run to
// completion) can be served entirely from this recording.
func (r *Recording) usableFor(budget uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.st {
	case stateFailed:
		return false
	case stateDone:
		if r.halted {
			return true
		}
	}
	// In progress or truncated at the ceiling: the budget must fit.
	if r.ceiling == 0 {
		return true // recording runs to halt
	}
	return budget > 0 && budget <= r.ceiling
}

// publish appends a finished chunk and wakes readers waiting at the head.
// It returns false when the cache's memory cap vetoed the publication; the
// caller must then abort the recording.
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
	r.cond.Broadcast()
	return true
}

// markDone finalizes a successful recording.
func (r *Recording) markDone(halted bool, streamErr error) {
	r.mu.Lock()
	r.st = stateDone
	r.halted = halted
	r.err = streamErr
	r.mu.Unlock()
	r.cond.Broadcast()
}

// Fail marks the recording unusable and wakes waiting readers, which then
// fall back to live emulation (for a granted recording whose run could not
// even start; a started run fails through Recorder.Abort).
func (r *Recording) Fail() { r.fail() }

// fail marks the recording unusable and wakes waiting readers, which then
// fall back to live emulation. Published chunks stay readable (a reader
// mid-prefix keeps replaying until it reaches the head).
func (r *Recording) fail() {
	r.mu.Lock()
	r.st = stateFailed
	r.mu.Unlock()
	r.cond.Broadcast()
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

// Reader replays a recording through the Next/Fill iterator contract. A
// reader that catches up to an in-progress recording blocks until more
// chunks are published; if the recording fails, the reader transparently
// falls back to a live emulator stream fast-forwarded past the records it
// already delivered (the fallback factory is supplied by the simulator).
//
// The hot path is lock-free: chunks are immutable once published, so the
// reader keeps a private snapshot of the chunk table and the published
// record count and only takes the recording's lock when the cursor reaches
// the snapshot's edge. The Flywheel core's oracle window pulls one record
// at a time, so Next in particular must cost no more than an array read.
type Reader struct {
	rec   *Recording
	limit uint64 // max records to deliver; 0 = all recorded
	count uint64 // records delivered

	// Local snapshot of the published state (refreshed under the lock).
	chunks []*chunk
	avail  uint64
	// final is the recording's observed end state (stateRecording while it
	// is still in progress); when final, avail is the full extent.
	final recState

	ci  int // index of the chunk under the cursor
	dec decoder

	fallback     func(skip uint64) (*emu.Stream, error)
	live         *emu.Stream
	fallbackErr  error
	fallbackUsed bool
}

// NewReader returns a replay cursor over rec delivering at most limit
// records (0 = everything recorded). The fallback factory builds a live
// stream positioned skip records past the recording's start; it is invoked
// only if the recording fails mid-read.
func NewReader(rec *Recording, limit uint64, fallback func(skip uint64) (*emu.Stream, error)) *Reader {
	return &Reader{rec: rec, limit: limit, fallback: fallback}
}

// FellBack reports whether the reader switched to live emulation.
func (r *Reader) FellBack() bool { return r.fallbackUsed }

// refresh blocks until records beyond the cursor are published or the
// recording reaches a final state, then re-snapshots the published chunks.
// It reports whether records beyond the cursor are now available; on false
// the recording ended, failed (fallback activated) or is irrecoverable.
func (r *Reader) refresh() bool {
	rec := r.rec
	rec.mu.Lock()
	for rec.total <= r.count && rec.st == stateRecording {
		rec.cond.Wait()
	}
	r.chunks = rec.chunks
	r.avail = rec.total
	r.final = rec.st
	rec.mu.Unlock()
	if r.count < r.avail {
		return true
	}
	if r.final == stateFailed {
		r.switchToLive()
	}
	return false
}

// switchToLive activates the fallback stream.
func (r *Reader) switchToLive() {
	r.fallbackUsed = true
	if r.fallback == nil {
		r.fallbackErr = fmt.Errorf("trace: recording %q failed and reader has no fallback", r.rec.key)
		return
	}
	live, err := r.fallback(r.count)
	if err != nil {
		r.fallbackErr = fmt.Errorf("trace: fallback for %q: %w", r.rec.key, err)
		return
	}
	r.live = live
}

// advanceChunk positions the decoder on the cursor's chunk. The cursor is
// known to be inside the available snapshot.
func (r *Reader) advanceChunk() {
	if r.dec.c != nil {
		r.ci++
	}
	r.dec = newDecoder(r.chunks[r.ci])
}

// Fill batch-delivers records into the caller's buffer (pipe.Filler). Like
// emu.Stream.Fill it returns the records produced before any terminating
// condition: limit, end of recording, or a recorded mid-stream fault.
func (r *Reader) Fill(buf []emu.Trace) int {
	if r.live != nil {
		n := r.live.Fill(buf)
		r.count += uint64(n)
		return n
	}
	if r.fallbackErr != nil {
		return 0
	}
	want := uint64(len(buf))
	if r.limit > 0 {
		if r.count >= r.limit {
			return 0
		}
		if left := r.limit - r.count; left < want {
			want = left
		}
	}
	n := 0
	for uint64(n) < want {
		if r.count >= r.avail {
			exhausted := r.final != stateRecording
			if exhausted && r.final == stateFailed && r.live == nil {
				r.switchToLive()
			} else if !exhausted {
				exhausted = !r.refresh()
			}
			if exhausted {
				if r.live != nil {
					m := r.live.Fill(buf[n:int(want)])
					r.count += uint64(m)
					return n + m
				}
				break // done: everything recorded was delivered
			}
		}
		if r.dec.c == nil || r.dec.i >= r.dec.c.n {
			r.advanceChunk()
		}
		c := r.dec.c
		stop := r.avail - r.count // records left in the snapshot
		if rem := uint64(c.n - r.dec.i); rem < stop {
			stop = rem
		}
		if left := want - uint64(n); left < stop {
			stop = left
		}
		for k := uint64(0); k < stop; k++ {
			buf[n] = r.dec.next()
			n++
		}
		r.count += stop
	}
	return n
}

// Next delivers one record (pipe.InstSource). The common case — the next
// record sits decoded-side in the current chunk, under the limit — touches
// no lock and no buffer.
func (r *Reader) Next() (emu.Trace, bool) {
	if r.live == nil && r.fallbackErr == nil &&
		r.count < r.avail && (r.limit == 0 || r.count < r.limit) &&
		r.dec.c != nil && r.dec.i < r.dec.c.n {
		r.count++
		return r.dec.next(), true
	}
	var one [1]emu.Trace
	if r.Fill(one[:]) == 0 {
		return emu.Trace{}, false
	}
	return one[0], true
}

// Err reports a terminating error: the recorded stream's own fault when the
// reader consumed the full recording, or a fallback failure. A reader that
// stopped at its own limit reports nil, mirroring a budgeted live stream.
func (r *Reader) Err() error {
	if r.fallbackErr != nil {
		return r.fallbackErr
	}
	if r.live != nil {
		return r.live.Err()
	}
	if r.limit > 0 && r.count >= r.limit {
		return nil
	}
	r.rec.mu.Lock()
	defer r.rec.mu.Unlock()
	if r.count >= r.rec.total && r.rec.st == stateDone {
		return r.rec.err
	}
	return nil
}
