package core

import (
	"flywheel/internal/mem"
	"flywheel/internal/pipe"
)

// Trace-creation mode: the conventional front-end runs in its own (faster)
// clock domain, dispatch crosses into the dual-clock issue window with a
// synchronization delay, and every issue group is recorded into the
// Execution Cache through the builder.

// fetch runs the fetch stage on a front-end edge.
func (c *Core) fetch(now int64) {
	if now < c.fetchStallUntil || c.fetcher.Blocked() {
		return
	}
	if c.front.Free() < c.cfg.FetchWidth {
		c.stats.FetchStallQueue++
		return
	}
	p := c.fe.Period()
	group, lat := c.fetcher.FetchGroup(now, p)
	if len(group) == 0 {
		return
	}
	hit := c.cfg.Mem.L1I.HitLatency
	depth := int64(hit + c.cfg.DecodeStages)
	readyAt := now + depth*p
	if lat > hit {
		readyAt = now + int64(lat+c.cfg.DecodeStages)*p
		c.fetchStallUntil = now + int64(lat-hit)*p
	}
	for _, d := range group {
		c.front.Push(d, readyAt)
	}
}

// dispatch moves instructions from the front-end queue through rename phase
// one into the issue window, reorder buffer and load/store queue. It runs
// on front-end edges; entries become visible to wake-up/select only after
// the synchronization delay of the dual-clock interface.
func (c *Core) dispatch(now int64) {
	if c.sealing || now < c.redistStallUntil {
		return
	}
	for n := 0; n < c.cfg.DispatchWidth; n++ {
		d, ok := c.front.Peek(now)
		if !ok {
			return
		}
		if c.rob.Full() || c.iw.Full() {
			c.stats.DispatchStallResource++
			return
		}
		if (d.IsLoad() || d.IsStore()) && c.lsq.Full() {
			c.stats.DispatchStallResource++
			return
		}
		in := d.Inst()
		if in.HasDest() && !c.ren.CanRename(in.Rd) {
			c.ren.NoteStall(in.Rd)
			c.stats.RenameStalls++
			return
		}
		c.front.Pop(now)
		d.LID = c.ren.Rename(in)
		c.rat.Link(d)
		c.rob.Push(d)
		c.iw.Insert(d, now+int64(c.cfg.SyncCycles)*c.bePeriod())
		if d.IsLoad() || d.IsStore() {
			c.lsq.Insert(d)
		}
		d.State = pipe.StateDispatched
		d.DispatchedAt = now
		c.stats.Dispatched++
		c.stats.Renamed++
		c.nextBuildSeq = d.Seq() + 1
		c.nextBuildPC = d.Trace.NextPC
		if c.builder == nil {
			// First instruction after a boundary starts a fresh trace.
			c.builder = c.ec.NewBuilder(d.Trace.PC, d.Seq())
			if d.Trace.PC == c.divergedPC {
				c.divergedPC = noDivergedPC
			} else if c.stats.Retired < c.scratchUntil && c.ec.Resident(d.Trace.PC) {
				c.builder.Scratch()
			}
		}
	}
}

// buildIssue runs wake-up/select on a back-end edge and records the issue
// unit into the trace under construction.
func (c *Core) buildIssue(now int64) {
	p := c.bePeriod()
	if now < c.redistStallUntil {
		return
	}
	// One load-barrier snapshot serves every waiting load this edge (store
	// states cannot change inside the select scan); computed lazily so
	// load-free edges pay nothing.
	loadBarrier, haveBarrier := uint64(0), false
	gateActive := now < c.gateUntil
	selected := c.iw.Select(now, p, c.cfg.IssueWidth, c.fu, func(d *pipe.DynInst) pipe.SelectVerdict {
		if gateActive && d.Seq() >= c.gateSeq {
			// Waiting for the trace-change checkpoint; the gate blocks
			// everything from gateSeq on, so in age order nothing younger
			// can issue either.
			return pipe.SelectStop
		}
		if d.IsLoad() {
			if !haveBarrier {
				loadBarrier, haveBarrier = c.lsq.LoadBarrier(), true
			}
			if d.Seq() >= loadBarrier {
				return pipe.SelectSkip
			}
		}
		return pipe.SelectOK
	})
	if len(selected) == 0 {
		return
	}
	slots := c.slotScratch[:0]
	record := c.builder != nil
	for _, d := range selected {
		c.executeInst(d, now, p)
		c.stats.UpdateOps++
		if in := d.Inst(); in.HasDest() {
			c.ren.UpdateSRT(in.Rd, d.LID[0])
		}
		if record {
			slots = append(slots, Slot{
				PC:        d.Trace.PC,
				Inst:      d.Trace.Inst,
				SeqOffset: uint32(d.Seq() - c.builder.StartSeq()),
				LID:       d.LID,
			})
		}
	}
	c.slotScratch = slots
	if record {
		// AddUnit copies the slots into the trace's pending block, so the
		// scratch buffer can be reused next cycle.
		c.builder.AddUnit(slots)
		if c.builder.Full() && !c.sealing {
			// Trace reached capacity: stall dispatch and drain the window
			// so the trace ends at a clean program-order boundary.
			c.sealing = true
		}
	}
}

// executeInst computes the timing of one issued instruction (shared by both
// modes; p is the period of the clock the execution core currently runs on).
func (c *Core) executeInst(d *pipe.DynInst, now, p int64) {
	d.State = pipe.StateIssued
	d.IssuedAt = now
	lat := int64(c.fu.Latency(d.Class()))
	c.stats.RegReads += uint64(d.Inst().NumSources())

	switch {
	case d.IsLoad():
		memCycles := int64(1)
		if fwd := c.lsq.ForwardSource(d); fwd != nil {
			d.Forwarded = true
		} else {
			res := c.hier.Access(mem.AccessLoad, d.Trace.PC, d.Trace.Addr, p)
			memCycles = int64(res.Cycles)
			d.L1Hit = res.L1Hit
		}
		d.ResultAt = now + (lat+memCycles)*p
		d.DoneAt = d.ResultAt + p
	case d.IsStore():
		c.hier.Access(mem.AccessStore, d.Trace.PC, d.Trace.Addr, p)
		d.ResultAt = now + lat*p
		d.DoneAt = d.ResultAt + p
	case d.IsControl():
		d.ResultAt = now + lat*p
		resolve := d.ResultAt + int64(c.cfg.BranchResolveCycles)*p
		d.DoneAt = resolve + p
	default:
		d.ResultAt = now + lat*p
		d.DoneAt = d.ResultAt + p
	}
}

// checkSeal finishes a capacity-sealed trace once the issue window has
// drained, then searches the EC for a trace at the next program-order
// address ("trace completion condition", §3.3).
func (c *Core) checkSeal(now int64) {
	if !c.sealing || c.iw.Len() != 0 {
		return
	}
	c.sealing = false
	if c.builder != nil {
		c.builder.Finish(c.nextBuildPC)
		c.builder = nil
	}
	// SRT checkpoint: the trace ended before Register Update, so the
	// one-cycle swap path applies.
	c.ren.CheckpointSRT()
	c.gate(c.nextBuildSeq, now+int64(c.cfg.CheckpointCycles)*c.bePeriod())
	if c.cfg.ECEnabled {
		if r, ok := c.ec.Lookup(c.nextBuildPC); ok {
			c.enterReplay(now, r, c.nextBuildSeq, c.nextBuildPC)
			return
		}
	}
	// No trace found: keep building from the boundary.
	c.builder = nil // next dispatch opens the new trace
}

// onMispredictRetire handles a mispredicted control instruction reaching
// retirement in trace-creation mode: the trace ends here, the FRT
// checkpoint runs, and the EC is searched for the corrected path (§3.3).
func (c *Core) onMispredictRetire(now int64, d *pipe.DynInst) {
	if c.builder != nil {
		c.builder.Finish(d.Trace.NextPC)
		c.builder = nil
	}
	c.sealing = false
	c.ren.CheckpointFRT()
	resumeSeq := d.Seq() + 1
	resumePC := d.Trace.NextPC
	c.gate(resumeSeq, now+int64(c.cfg.CheckpointCycles)*c.bePeriod())
	if c.cfg.ECEnabled {
		if r, ok := c.ec.Lookup(resumePC); ok {
			c.enterReplay(now, r, resumeSeq, resumePC)
			return
		}
	}
	// Miss: restart the front-end down the corrected path.
	c.fetcher.Unblock(d)
	c.fetchStallUntil = now + int64(c.cfg.RedirectCycles)*c.fe.Period()
	c.nextBuildPC = resumePC
	c.nextBuildSeq = resumeSeq
}

// gate blocks issue of instructions at or after seq until t (the Register
// Update stage cannot accept the new trace before the checkpoint).
func (c *Core) gate(seq uint64, t int64) {
	c.gateSeq = seq
	c.gateUntil = t
}

// enterReplay switches to trace-execution mode with the given trace.
func (c *Core) enterReplay(now int64, r Reader, startSeq uint64, startPC uint64) {
	// Squash the front-end: return any fetched-but-undispatched work to
	// the oracle window so replay re-delivers it from the EC.
	// Front-queue entries are pre-dispatch (not yet renamed), so returning
	// their sequence numbers to the window fully undoes them.
	for {
		d, ok := c.front.Pop(now + 1<<40) // pop regardless of readiness
		if !ok {
			break
		}
		c.window.Unconsume(d.Trace)
		c.arena.Free(d)
	}
	if d := c.fetcher.TakePending(); d != nil {
		c.window.Unconsume(d.Trace)
		c.arena.Free(d)
	}
	c.fetcher.ForceUnblock()
	c.switchMode(now, ModeReplay)
	c.releaseRun(c.cur)
	c.releaseRun(c.next)
	c.cur = c.newRun(r, startSeq, startPC, c.gateUntil)
	c.next = nil
	c.draining = false
}
