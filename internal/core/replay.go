package core

import (
	"flywheel/internal/emu"
	"flywheel/internal/isa"
	"flywheel/internal/pipe"
)

// Trace-execution mode (§3.3): the front-end and wake-up/select logic are
// gated; issue units stream from the Execution Cache through the fill
// buffer into the Register Update stage and the functional units, one unit
// per cycle, VLIW-style — an issue unit only leaves when every operand is
// ready and every functional unit is free, so replay naturally slows down
// when cache behaviour differs from creation time.

// pendingUnit caches the head issue unit's edge-invariant work across
// stall retries. Finding the unit boundary, pairing slots with oracle
// records (including the divergence check) and summing structural needs
// depend only on the buffered slots and the oracle window, none of which
// change while the unit waits for resources — but the pre-cache issueUnit
// redid all of it on every back-end edge the unit stalled, which profiling
// showed was the single hottest path of a sweep. The cache is built the
// first time the unit's boundary is known and lives until the unit issues
// or its traceRun is torn down (divergence, trace end).
type pendingUnit struct {
	valid bool
	end   int // unit boundary in buffered
	// recs are the paired oracle records, aligned with buffered[:end].
	recs []emu.Trace
	// memOps, dests and fus are the unit's structural needs, with dests
	// and fus in ascending register/group order so the stall-check order
	// (and therefore every stall counter) matches the uncached loop.
	memOps int
	dests  []regNeed
	fus    []groupNeed
	// dataReadyAt is the earliest edge at which every source operand of
	// every slot is available, exact because in replay mode every producer
	// has already issued (units issue in order and execute immediately).
	// The defensive re-check at issue keeps a wrong bound from ever
	// changing behavior — it could only cost an extra scan.
	dataReadyAt int64
}

type regNeed struct {
	reg isa.Reg
	n   int
}

type groupNeed struct {
	g pipe.FUGroup
	n int
}

// traceRun is the replay state of one trace.
type traceRun struct {
	reader   Reader
	startSeq uint64
	// startPC is the address the trace was looked up at; a divergence
	// records it so the eventual rebuild at that address is recognized.
	startPC uint64
	// buffered holds slots delivered by the fill buffer, in issue order.
	buffered []Slot
	// unit caches the head unit's pairing and structural sums between
	// stalled edges.
	unit pendingUnit
	// Single outstanding block read (the data array has one read port;
	// the two-block fill buffer hides the latency, §3.3).
	readPending bool
	readReadyAt int64
	endSeen     bool
	broken      bool
	// blockedUntil gates the first issue after a trace-change checkpoint.
	blockedUntil int64
	// maxOff tracks the largest sequence offset seen (trace length guess
	// for next-trace prefetch).
	maxOff     uint32
	prefetched bool
	// successorPC is the trace's recorded follow-on address (next-trace
	// prediction), valid once endSeen.
	successorPC uint64
}

// done reports that no more blocks remain to read.
func (r *traceRun) done() bool { return r.endSeen || r.broken }

// newRun takes a traceRun from the core's pool (or allocates one) and
// resets every field, keeping the fill and unit-cache buffers: at most two
// runs are live at a time but thousands start per simulation, so pooling
// them keeps replay allocation-free in steady state.
func (c *Core) newRun(r Reader, startSeq, startPC uint64, blockedUntil int64) *traceRun {
	var run *traceRun
	if n := len(c.runPool); n == 0 {
		run = &traceRun{}
	} else {
		run = c.runPool[n-1]
		c.runPool = c.runPool[:n-1]
		buffered, recs, dests, fus := run.buffered[:0], run.unit.recs[:0], run.unit.dests[:0], run.unit.fus[:0]
		*run = traceRun{buffered: buffered}
		run.unit.recs, run.unit.dests, run.unit.fus = recs, dests, fus
	}
	run.reader, run.startSeq, run.startPC, run.blockedUntil = r, startSeq, startPC, blockedUntil
	return run
}

// releaseRun returns a dropped run to the pool. Callers must drop their
// pointer: the next newRun reuses the struct in place.
func (c *Core) releaseRun(run *traceRun) {
	if run != nil && len(c.runPool) < cap(c.runPool) {
		c.runPool = append(c.runPool, run)
	}
}

// fillCapSlots is how many slots the two-block fill buffer holds.
func (c *Core) fillCapSlots() int { return 2 * c.cfg.EC.BlockSlots }

// replayTick advances trace execution by one back-end edge.
func (c *Core) replayTick(now int64) {
	p := c.bePeriod()
	c.pumpReads(now, p)
	if c.draining {
		if c.rob.Len() == 0 && now >= c.drainReadyAt {
			c.finishDivergence(now)
		}
		return
	}
	if now < c.redistStallUntil {
		return
	}
	c.prefetchNext(now)
	c.issueUnit(now, p)
	c.maybeFinishTrace(now, p)
}

// pumpReads completes and schedules data-array block reads. The current
// trace has priority; the prefetched next trace reads only once the current
// one has no more blocks to fetch.
func (c *Core) pumpReads(now, p int64) {
	for _, run := range []*traceRun{c.cur, c.next} {
		if run == nil || !run.readPending || now < run.readReadyAt {
			continue
		}
		run.readPending = false
		slots, last, ok := run.reader.ReadBlock()
		if !ok {
			run.broken = true
			continue
		}
		for _, s := range slots {
			if s.SeqOffset > run.maxOff {
				run.maxOff = s.SeqOffset
			}
		}
		run.buffered = append(run.buffered, slots...)
		if last {
			run.endSeen = true
			run.successorPC = run.reader.Successor()
		}
	}
	anyPending := (c.cur != nil && c.cur.readPending) || (c.next != nil && c.next.readPending)
	if anyPending {
		return
	}
	start := func(run *traceRun) bool {
		if run == nil || run.done() || len(run.buffered) >= c.fillCapSlots() {
			return false
		}
		run.readPending = true
		run.readReadyAt = now + int64(c.cfg.EC.ReadCycles)*p
		return true
	}
	if c.cur != nil && !c.cur.done() {
		start(c.cur)
		return
	}
	start(c.next)
}

// prefetchNext looks up the follow-on trace as soon as the end-of-trace
// marker enters the fill buffer, hiding the tag lookup and first block read
// behind the tail of the current trace (§3.5: with the SRT the trace-change
// penalty shrinks to about a cycle). The lookup address is the *recorded*
// successor — a next-trace prediction: if execution actually leaves the
// trace elsewhere, pairing detects the mismatch and charges a divergence.
func (c *Core) prefetchNext(now int64) {
	run := c.cur
	if run == nil || !run.endSeen || run.prefetched || c.next != nil {
		return
	}
	run.prefetched = true
	if run.successorPC == 0 {
		return
	}
	guess := run.startSeq + uint64(run.maxOff) + 1
	if r, hit := c.ec.Lookup(run.successorPC); hit {
		c.next = c.newRun(r, guess, run.successorPC, 0)
	}
}

// formUnit builds the head unit's cache: boundary, oracle pairing and
// structural sums. It reports whether a complete unit is available; a
// divergence is handled inside (drain started) and reported as no unit.
func (c *Core) formUnit(now, p int64) bool {
	run := c.cur
	// Find the unit boundary. A unit is issuable only when its end is
	// known: either the next UnitStart is buffered or the trace has no
	// more blocks (the paper's corner case of units split across blocks
	// arriving late shows up here as a stall).
	end := 1
	for end < len(run.buffered) && !run.buffered[end].UnitStart {
		end++
	}
	if end == len(run.buffered) && !run.done() {
		c.stats.ReplayFillStalls++
		return false
	}
	unit := run.buffered[:end]

	// Pair slots with oracle records; any PC mismatch means the trace's
	// recorded path diverged from actual execution. Records are gathered
	// into the unit cache's reused buffer — arena slots are only claimed
	// once the whole unit issues, so a stalled unit costs no allocation
	// and no cleanup.
	u := &run.unit
	recs := u.recs[:0]
	for _, s := range unit {
		seq := run.startSeq + uint64(s.SeqOffset)
		rec, ok := c.window.At(seq)
		overlap := ok && c.window.Consumed(seq)
		if !ok || overlap || rec.PC != s.PC {
			if debugDivergence != nil {
				debugDivergence(run, s, rec, ok, c.window.Consumed(seq))
			}
			u.recs = recs
			c.stats.Divergences++
			if ok || !c.window.Drained() {
				// A genuine path mismatch: the stored trace at this start
				// address is stale, and its rebuild should replace it even
				// inside a sampled warm-up's scratch span. (A failed read on
				// a drained window is just the stream ending mid-trace.)
				c.divergedPC = run.startPC
			}
			c.startDrain(now + int64(c.cfg.DivergenceDetectCycles)*p)
			return false
		}
		recs = append(recs, rec)
	}

	// Structural sums for the whole unit (atomic issue). Units are at most
	// one issue group wide, so the needs are accumulated into short sorted
	// slices (insertion keeps ascending register/group order, preserving
	// the probe order — and therefore the stall counters — of the dense
	// per-register loop this replaces).
	memOps := 0
	dataReadyAt := int64(0)
	u.dests = u.dests[:0]
	u.fus = u.fus[:0]
	for _, rec := range recs {
		in := rec.Inst
		cl := in.Class()
		if cl == isa.ClassLoad || cl == isa.ClassStore {
			memOps++
		}
		if in.HasDest() {
			addRegNeed(&u.dests, in.Rd)
		}
		addGroupNeed(&u.fus, pipe.GroupOf(cl))
		// Operand availability bound: in replay mode every older
		// instruction has issued, so producers' ResultAt are final.
		rs1, rs2 := in.SrcRegs()
		if rs1 != isa.RegNone {
			if pr := c.rat.Producer(rs1); pr != nil && pr.ResultAt > dataReadyAt {
				dataReadyAt = pr.ResultAt
			}
		}
		if rs2 != isa.RegNone {
			if pr := c.rat.Producer(rs2); pr != nil && pr.ResultAt > dataReadyAt {
				dataReadyAt = pr.ResultAt
			}
		}
	}
	u.valid = true
	u.end = end
	u.recs = recs
	u.memOps = memOps
	u.dataReadyAt = dataReadyAt
	return true
}

// addRegNeed bumps reg's count in the sorted need list.
func addRegNeed(needs *[]regNeed, reg isa.Reg) {
	s := *needs
	at := len(s)
	for i := range s {
		if s[i].reg == reg {
			s[i].n++
			return
		}
		if s[i].reg > reg {
			at = i
			break
		}
	}
	s = append(s, regNeed{})
	copy(s[at+1:], s[at:])
	s[at] = regNeed{reg, 1}
	*needs = s
}

// addGroupNeed bumps g's count in the sorted need list.
func addGroupNeed(needs *[]groupNeed, g pipe.FUGroup) {
	s := *needs
	at := len(s)
	for i := range s {
		if s[i].g == g {
			s[i].n++
			return
		}
		if s[i].g > g {
			at = i
			break
		}
	}
	s = append(s, groupNeed{})
	copy(s[at+1:], s[at:])
	s[at] = groupNeed{g, 1}
	*needs = s
}

// issueUnit issues at most one complete issue unit.
func (c *Core) issueUnit(now, p int64) {
	run := c.cur
	if run == nil || now < run.blockedUntil || len(run.buffered) == 0 {
		return
	}
	if !run.unit.valid && !c.formUnit(now, p) {
		return
	}
	u := &run.unit
	recs := u.recs
	if c.rob.Len()+len(recs) > c.rob.Cap() || c.lsq.Len()+u.memOps > c.lsq.Cap() {
		c.stats.ReplayStallResource++
		return
	}
	for _, dn := range u.dests {
		if !c.ren.CanAcquire(dn.reg, dn.n) {
			c.ren.NoteStall(dn.reg)
			c.stats.RenameStalls++
			return
		}
	}
	c.fu.BeginCycle(now)
	for _, fn := range u.fus {
		if c.fu.AvailableFor(fn.g, now) < fn.n {
			c.stats.ReplayStallResource++
			return
		}
	}
	// Scoreboard: every operand of every slot must be ready (VLIW-style).
	// The cached bound short-circuits the common stalled edges; at or past
	// the bound the exact per-slot check still runs (it is cheap once, and
	// it keeps a stale bound from ever issuing early).
	if u.dataReadyAt > now {
		c.stats.ReplayStallData++
		return
	}
	for i, rec := range recs {
		if !c.rat.SourceRegsReady(rec.Inst, now) {
			c.stats.ReplayStallData++
			if debugStall != nil {
				d := pipe.NewDynInst(rec)
				d.LID = run.buffered[i].LID
				debugStall(c, d, now)
			}
			return
		}
	}

	// Commit the unit: claim arena slots and execute.
	insts := c.replayInsts[:0]
	for i, rec := range recs {
		d := c.arena.Alloc(rec)
		d.LID = run.buffered[i].LID
		insts = append(insts, d)
	}
	c.replayInsts = insts
	for _, d := range insts {
		in := d.Inst()
		c.rat.Link(d)
		c.rob.Push(d)
		if d.IsLoad() || d.IsStore() {
			c.lsq.Insert(d)
		}
		if in.HasDest() {
			c.ren.AcquireDest(in.Rd)
			c.ren.UpdateSRT(in.Rd, d.LID[0])
		}
		c.fu.TryReserve(d.Class(), now, p)
		c.executeInst(d, now, p)
		c.window.Consume(d.Seq())
		c.stats.IssuedReplay++
		c.stats.UpdateOps++
	}
	run.buffered = append(run.buffered[:0], run.buffered[u.end:]...)
	u.valid = false
	c.stats.ReplayUnits++
	// Forward progress: clear the failed-resume latch.
	c.lastFailedResume = noFailedResume
}

// startDrain begins divergence handling: stop issuing, wait for the ROB to
// empty (the mispredicted branch retires within that window) and for the
// detection depth to elapse, then take the FRT checkpoint.
func (c *Core) startDrain(readyAt int64) {
	c.draining = true
	c.drainReadyAt = readyAt
	c.releaseRun(c.cur)
	c.releaseRun(c.next)
	c.cur = nil
	c.next = nil
}

// finishDivergence runs once the pipeline drained after a divergence.
func (c *Core) finishDivergence(now int64) {
	c.draining = false
	c.ren.CheckpointFRT()
	c.afterTraceExit(now, true)
}

// maybeFinishTrace handles clean trace ends and broken chains.
func (c *Core) maybeFinishTrace(now, p int64) {
	run := c.cur
	if run == nil || len(run.buffered) != 0 || run.readPending || !run.done() {
		return
	}
	if run.broken {
		c.stats.BrokenReplays++
	}
	// Clean prefix consumed: the SRT matches the last updated mapping, so
	// the one-cycle swap applies (§3.5).
	c.ren.CheckpointSRT()
	c.stats.TraceChanges++

	if c.next != nil && !run.broken {
		// Prefetched (speculative) follow-on trace: swap in with the
		// one-cycle SRT penalty. If the successor prediction was wrong,
		// the new trace's pairing will diverge immediately.
		c.cur = c.next
		c.next = nil
		c.releaseRun(run)
		c.cur.blockedUntil = now + int64(c.cfg.CheckpointCycles)*p
		return
	}
	c.releaseRun(c.next)
	c.next = nil
	c.afterTraceExit(now, false)
}

// afterTraceExit decides where execution continues after leaving a trace:
// another trace if the EC has one for the resume address, otherwise the
// front-end restarts in trace-creation mode. After a divergence the resume
// point may sit inside a partially consumed region whose stored traces can
// never pair again; retrying the same resume point would livelock, so a
// repeat failure forces trace creation.
func (c *Core) afterTraceExit(now int64, diverged bool) {
	// Whatever runs are still attached are finished here: every path below
	// replaces them (with a new run, or with build mode).
	c.releaseRun(c.cur)
	c.releaseRun(c.next)
	c.cur, c.next = nil, nil
	resume, ok := c.window.NextUnconsumed()
	if !ok {
		c.exitToBuild(now)
		return
	}
	gateAt := now + int64(c.cfg.CheckpointCycles)*c.bePeriod()
	retryable := true
	if diverged {
		if resume.Seq == c.lastFailedResume {
			retryable = false
		}
		c.lastFailedResume = resume.Seq
	}
	if retryable {
		if r, hit := c.ec.Lookup(resume.PC); hit {
			c.cur = c.newRun(r, resume.Seq, resume.PC, gateAt)
			if c.mode != ModeReplay {
				c.switchMode(now, ModeReplay)
			}
			return
		}
	}
	c.gate(resume.Seq, gateAt)
	c.exitToBuild(now)
}

// exitToBuild returns to trace-creation mode at the resume point.
func (c *Core) exitToBuild(now int64) {
	c.switchMode(now, ModeBuild)
	c.builder = nil // the next dispatch opens a fresh trace
	c.sealing = false
	c.fetchStallUntil = now + int64(c.cfg.RedirectCycles)*c.fe.Period()
}

// debugDivergence, when non-nil, observes every divergence (test hook).
var debugDivergence func(run *traceRun, s Slot, rec emu.Trace, ok, consumed bool)

// debugStall, when non-nil, observes scoreboard stalls (test hook).
var debugStall func(c *Core, d *pipe.DynInst, now int64)
