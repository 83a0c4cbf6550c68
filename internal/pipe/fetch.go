package pipe

import (
	"flywheel/internal/branch"
	"flywheel/internal/emu"
	"flywheel/internal/mem"
)

// InstSource supplies the dynamic instruction stream in program order.
// *emu.Stream implements it directly; the Flywheel core interposes its
// oracle window so trace replay and the front-end share one stream.
type InstSource interface {
	Next() (emu.Trace, bool)
}

// Filler is optionally implemented by instruction sources that can
// batch-deliver records into a caller-owned buffer (*emu.Stream does). The
// fetcher uses it to amortize per-record interface calls.
type Filler interface {
	Fill(buf []emu.Trace) int
}

// fetchBatch is the fetcher's trace read-ahead when the source supports
// batching.
const fetchBatch = 64

// Fetcher models the instruction fetch stage. It pulls the dynamic
// instruction stream from the architectural oracle and follows the
// *predicted* control flow indirectly: fetch proceeds down the correct path,
// but whenever the branch predictor would have disagreed with the oracle the
// fetcher blocks — exactly as a real front-end stops producing useful work
// after a mispredict — until the core reports the branch resolved. This
// charges the full misprediction penalty without simulating wrong-path
// instructions (see DESIGN.md, substitutions).
//
// Fetch groups follow the paper's baseline: up to width instructions per
// cycle from one aligned block, ending early at taken control flow.
type Fetcher struct {
	stream InstSource
	pred   *branch.Predictor
	hier   *mem.Hierarchy
	width  int
	arena  *Arena

	pending   *DynInst // lookahead when a group ends on an alignment break
	blockedOn *DynInst // unresolved mispredicted control instruction
	done      bool

	// group is the reused FetchGroup result buffer.
	group []*DynInst

	// Batched delivery (when the source implements Filler): buf[bufPos:
	// bufLen] holds records read ahead of the pipeline.
	filler Filler
	buf    []emu.Trace
	bufPos int
	bufLen int

	// Stats
	Groups      uint64
	Fetched     uint64
	Mispredicts uint64
}

// NewFetcher builds a fetch stage of the given width, drawing in-flight
// instruction storage from the arena.
func NewFetcher(stream InstSource, pred *branch.Predictor, hier *mem.Hierarchy, width int, arena *Arena) *Fetcher {
	f := &Fetcher{pred: pred, hier: hier, width: width, arena: arena, group: make([]*DynInst, 0, width)}
	f.Reset(stream)
	return f
}

// Reset returns the fetcher to the state NewFetcher leaves it in over
// stream, keeping its predictor, hierarchy, arena and buffers (a reused
// core resets those itself).
func (f *Fetcher) Reset(stream InstSource) {
	*f = Fetcher{
		stream: stream, pred: f.pred, hier: f.hier, width: f.width, arena: f.arena,
		group: f.group[:0], buf: f.buf,
	}
	if filler, ok := stream.(Filler); ok {
		f.filler = filler
		if f.buf == nil {
			f.buf = make([]emu.Trace, fetchBatch)
		}
	}
}

// TakePending removes and returns the lookahead instruction, if any; the
// Flywheel core returns it to the oracle window when switching into trace
// execution.
func (f *Fetcher) TakePending() *DynInst {
	d := f.pending
	f.pending = nil
	return d
}

// ForceUnblock clears any mispredict block (mode switches reset the
// front-end).
func (f *Fetcher) ForceUnblock() { f.blockedOn = nil }

// Blocked reports whether fetch is stalled behind a mispredicted control
// instruction.
func (f *Fetcher) Blocked() bool { return f.blockedOn != nil }

// BlockedOn returns the instruction fetch is stalled on, or nil.
func (f *Fetcher) BlockedOn() *DynInst { return f.blockedOn }

// Done reports whether the instruction stream is exhausted.
func (f *Fetcher) Done() bool { return f.done && f.pending == nil }

// Reopen clears the end-of-stream latch so fetch resumes pulling from the
// source. Sampled execution uses it between detailed windows: the source is
// a budget gate that reads empty at a window's end and is refilled before
// the next one.
func (f *Fetcher) Reopen() { f.done = false }

// Unblock resumes fetch after the mispredicted instruction d resolved.
func (f *Fetcher) Unblock(d *DynInst) {
	if f.blockedOn == d {
		f.blockedOn = nil
	}
}

// next returns the next dynamic instruction, honouring the lookahead slot.
// The end-of-stream latch clears itself when the source delivers again: a
// front-end squash can hand records back to the oracle window after the
// stream read empty, and those must still reach fetch.
func (f *Fetcher) next() *DynInst {
	if f.pending != nil {
		d := f.pending
		f.pending = nil
		return d
	}
	if f.filler != nil {
		if f.bufPos >= f.bufLen {
			f.bufLen = f.filler.Fill(f.buf)
			f.bufPos = 0
			if f.bufLen == 0 {
				f.done = true
				return nil
			}
		}
		tr := f.buf[f.bufPos]
		f.bufPos++
		f.done = false
		return f.arena.Alloc(tr)
	}
	tr, ok := f.stream.Next()
	if !ok {
		f.done = true
		return nil
	}
	f.done = false
	return f.arena.Alloc(tr)
}

// FetchGroup fetches one group. It returns the instructions and the
// instruction-cache latency in cycles (the core turns that into the
// fetch-buffer visibility time). It returns a nil group when fetch is
// blocked or the stream ended. The returned slice is reused by the next
// FetchGroup call; callers must consume it before fetching again.
func (f *Fetcher) FetchGroup(now, periodPS int64) ([]*DynInst, int) {
	if f.blockedOn != nil {
		return nil, 0
	}
	group := f.group[:0]
	blockID := int64(-1)
	for len(group) < f.width {
		d := f.next()
		if d == nil {
			break
		}
		// Aligned fetch: all instructions of a group come from one
		// width-instruction block.
		id := int64(d.Trace.PC) / (int64(f.width) * 4)
		if blockID == -1 {
			blockID = id
		} else if id != blockID {
			f.pending = d
			break
		}
		d.FetchedAt = now
		d.State = StateFetched
		group = append(group, d)
		f.Fetched++

		if d.IsControl() {
			pred := f.pred.Predict(d.Trace.PC, d.Inst())
			wrong := pred.Taken != d.Trace.Taken ||
				(d.Trace.Taken && (!pred.TargetKnown || pred.Target != d.Trace.NextPC))
			f.pred.RecordOutcome(d.Inst(), wrong)
			if wrong {
				d.Mispredicted = true
				f.blockedOn = d
				f.Mispredicts++
				break
			}
			if d.Trace.Taken {
				// Correctly predicted taken: group ends, next group
				// starts at the target next cycle.
				break
			}
		}
		if d.IsHalt() {
			break
		}
	}
	f.group = group
	if len(group) == 0 {
		return nil, 0
	}
	f.Groups++
	lat := f.hier.Access(mem.AccessFetch, group[0].Trace.PC, group[0].Trace.PC, periodPS)
	return group, lat.Cycles
}
