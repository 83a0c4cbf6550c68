package ooo

import (
	"fmt"

	"flywheel/internal/branch"
	"flywheel/internal/clock"
	"flywheel/internal/mem"
	"flywheel/internal/pipe"
)

// Core is one baseline machine instance, wired to an architectural oracle
// stream. Create with New, run with Run.
type Core struct {
	cfg Config

	domain  *clock.Domain
	sys     *clock.System
	pred    *branch.Predictor
	hier    *mem.Hierarchy
	arena   *pipe.Arena
	fetcher *pipe.Fetcher
	front   *clock.Queue[*pipe.DynInst]
	iw      *pipe.IssueWindow
	rob     *pipe.ROB
	lsq     *pipe.LSQ
	fu      *pipe.FUPool
	rat     *pipe.RAT

	renameInFlight  int
	renameCap       int // cfg.RenameCapacity(), kept so dispatch does not copy cfg
	fetchStallUntil int64
	unblockAt       int64
	unblockInst     *pipe.DynInst

	halted  bool
	sawHalt bool
	// stats holds the counters the core keeps itself; Counters adds those
	// of its structures.
	stats pipe.Counters

	// Retirement marks for sampled execution: markFn fires with the
	// counters the first time Retired reaches each ascending mark.
	marks    []uint64
	markFn   func(i int, c pipe.Counters)
	nextMark int
}

// New builds a core around the given oracle source: a live *emu.Stream, a
// trace-cache recorder or reader (package trace), or anything else
// honouring the Next/Fill iterator contract.
func New(cfg Config, stream pipe.InstSource) *Core {
	pred := branch.New(cfg.Branch)
	hier := mem.NewHierarchy(cfg.Mem)
	arena := pipe.NewArena(pipe.ArenaCapacity(cfg.ROBSize, cfg.FrontQueueCap, cfg.FetchWidth))
	domain := clock.NewDomain("core", cfg.PeriodPS, 0)
	c := &Core{
		domain:  domain,
		sys:     clock.NewSystem(domain),
		pred:    pred,
		hier:    hier,
		arena:   arena,
		fetcher: pipe.NewFetcher(stream, pred, hier, cfg.FetchWidth, arena),
		front:   clock.NewQueue[*pipe.DynInst](cfg.FrontQueueCap),
		iw:      pipe.NewIssueWindow(cfg.IWSize),
		rob:     pipe.NewROB(cfg.ROBSize),
		lsq:     pipe.NewLSQ(cfg.LSQSize),
		fu:      pipe.NewFUPool(cfg.FU),
		rat:     pipe.NewRAT(arena),
	}
	c.configure(cfg)
	return c
}

// Reset returns c to the state New(cfg, stream) builds and reports true.
// Every structure is reset in place, so a reused core allocates nothing
// unless cfg selects another predictor or prefetcher. It reports false,
// and leaves c untouched, when cfg needs structures of another shape than
// c's (sameShape); build a new core then.
func (c *Core) Reset(cfg Config, stream pipe.InstSource) bool {
	if !sameShape(c.cfg, cfg) {
		return false
	}
	c.pred.Reset(cfg.Branch)
	c.hier.Reset(cfg.Mem)
	c.arena.Reset()
	c.fetcher.Reset(stream)
	c.front.Flush()
	c.iw.Reset()
	c.rob.Flush()
	c.lsq.Reset()
	c.fu.Reset()
	c.rat.Reset()
	c.domain.Reset(cfg.PeriodPS, 0)
	c.sys.Reset()
	// Every other field returns to its zero value.
	*c = Core{
		domain: c.domain, sys: c.sys, pred: c.pred, hier: c.hier, arena: c.arena,
		fetcher: c.fetcher, front: c.front, iw: c.iw, rob: c.rob, lsq: c.lsq, fu: c.fu, rat: c.rat,
	}
	c.configure(cfg)
	return true
}

// configure sets the configuration and what it decides beyond the
// structure sizes; New and Reset share it.
func (c *Core) configure(cfg Config) {
	c.cfg = cfg
	c.renameCap = cfg.RenameCapacity()
	if cfg.PipelinedWakeupSelect {
		c.iw.ExtraWakeupDelayPS = cfg.PeriodPS
	}
}

// sameShape reports whether cores built from a and b have structures of
// the same sizes and cache geometries, so one can be reset to the other's
// configuration. The predictor, the prefetcher, clock periods, latencies,
// pipeline depths and the wake-up/select variant may differ.
func sameShape(a, b Config) bool {
	return a.FetchWidth == b.FetchWidth && a.IWSize == b.IWSize && a.ROBSize == b.ROBSize &&
		a.LSQSize == b.LSQSize && a.FrontQueueCap == b.FrontQueueCap && a.FU == b.FU &&
		a.Mem.SameCaches(b.Mem)
}

// Run simulates until the program halts (or the stream ends) and returns
// the run's counters.
func (c *Core) Run() (pipe.Counters, error) {
	guardCycles := uint64(0)
	lastRetired := uint64(0)
	for !c.halted {
		now, _ := c.sys.Advance()
		c.cycle(now)

		if c.markFn != nil {
			for c.nextMark < len(c.marks) && c.stats.Retired >= c.marks[c.nextMark] {
				c.markFn(c.nextMark, c.Counters())
				c.nextMark++
			}
		}
		if c.cfg.MaxCycles > 0 && c.domain.Cycles > c.cfg.MaxCycles {
			return c.Counters(), fmt.Errorf("ooo: exceeded max cycles (%d)", c.cfg.MaxCycles)
		}
		if c.stats.Retired == lastRetired {
			guardCycles++
			if guardCycles > 200_000 {
				return c.Counters(), fmt.Errorf(
					"ooo: no retirement progress for %d cycles at t=%dps (rob=%d iw=%d front=%d fetchBlocked=%v)",
					guardCycles, now, c.rob.Len(), c.iw.Len(), c.front.Len(), c.fetcher.Blocked())
			}
		} else {
			guardCycles = 0
			lastRetired = c.stats.Retired
		}
	}
	return c.Counters(), nil
}

// Counters returns the run's counters as of now. It does not disturb the
// running counts and may be called repeatedly. The single clock grid
// spans both domains, so every edge is a front-end and a back-end edge.
func (c *Core) Counters() pipe.Counters {
	s := c.stats
	s.ReadStructures(c.fetcher, c.iw, c.lsq, c.fu)
	s.TimePS = c.sys.Now()
	s.FECycles, s.BECycles = c.domain.Cycles, c.domain.Cycles
	return s
}

// SetMarks arranges for fn to be called with the counters the first time
// the retired-instruction count reaches each mark (ascending). Sampled
// execution sets two marks per detailed window to delimit the measurement
// interval. Replaces any previous marks.
func (c *Core) SetMarks(marks []uint64, fn func(i int, c pipe.Counters)) {
	c.marks, c.markFn, c.nextMark = marks, fn, 0
}

// Warmer exposes functional warming over this core's caches and predictor;
// call before Run, then Warmer().Finish() to clear the warm-up statistics.
func (c *Core) Warmer() *pipe.Warmer { return pipe.NewWarmer(c.pred, c.hier) }

// Resume clears the end-of-stream halt so Run can be called again after
// the instruction source is replenished; sampled execution resumes the
// same core for each detailed window so that predictor, cache, and queue
// state carry across. It reports false if the program truly halted
// (retired a HALT) — there is nothing left to run then. The argument is
// the Flywheel core's Execution Cache scratch span; the baseline has no
// Execution Cache and ignores it.
func (c *Core) Resume(uint64) bool {
	if c.sawHalt {
		return false
	}
	c.halted = false
	c.fetcher.Reopen()
	return true
}

// cycle executes one clock edge, stages in reverse pipeline order so that
// same-cycle flow-through cannot skip stages.
func (c *Core) cycle(now int64) {
	c.retire(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)

	// Program done: everything drained and nothing more to fetch.
	if c.fetcher.Done() && c.front.Len() == 0 && c.rob.Len() == 0 {
		c.halted = true
	}
}

func (c *Core) retire(now int64) {
	for n := 0; n < c.cfg.CommitWidth; n++ {
		head := c.rob.Head()
		if head == nil || head.State < pipe.StateIssued || head.DoneAt > now {
			return
		}
		head.State = pipe.StateDone
		c.rob.PopHead()
		head.State = pipe.StateRetired
		c.rat.Retire(head)
		if head.Inst().HasDest() {
			c.renameInFlight--
			c.stats.RegWrites++
		}
		if head.IsLoad() || head.IsStore() {
			c.lsq.Remove(head)
		}
		if head.IsControl() {
			c.pred.Update(head.Trace.PC, head.Inst(), head.Trace.Taken, head.Trace.NextPC)
		}
		c.stats.Retired++
		halt := head.IsHalt()
		c.arena.Free(head)
		if halt {
			c.halted = true
			c.sawHalt = true
			return
		}
	}
}

func (c *Core) issue(now int64) {
	p := c.cfg.PeriodPS
	// One load-barrier snapshot serves every waiting load this edge (store
	// states cannot change inside the select scan); computed lazily so
	// load-free edges pay nothing.
	loadBarrier, haveBarrier := uint64(0), false
	selected := c.iw.Select(now, p, c.cfg.IssueWidth, c.fu, func(d *pipe.DynInst) pipe.SelectVerdict {
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
	for _, d := range selected {
		d.State = pipe.StateIssued
		d.IssuedAt = now
		lat := int64(c.fu.Latency(d.Class()))
		c.stats.RegReads += uint64(d.Inst().NumSources())

		switch {
		case d.IsLoad():
			memCycles := int64(1) // store-to-load forward latency
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
			// The architected write happens at commit; the port and cache
			// are charged here, where address and data are ready.
			c.hier.Access(mem.AccessStore, d.Trace.PC, d.Trace.Addr, p)
			d.ResultAt = now + lat*p
			d.DoneAt = d.ResultAt + p
		case d.IsControl():
			d.ResultAt = now + lat*p
			resolve := d.ResultAt + int64(c.cfg.BranchResolveCycles)*p
			d.DoneAt = resolve + p
			if d.Mispredicted {
				c.scheduleUnblock(d, resolve+int64(c.cfg.RedirectCycles)*p)
				c.stats.Mispredicts++
			}
		default:
			d.ResultAt = now + lat*p
			d.DoneAt = d.ResultAt + p
		}
	}
}

func (c *Core) scheduleUnblock(d *pipe.DynInst, at int64) {
	c.unblockInst = d
	c.unblockAt = at
}

func (c *Core) dispatch(now int64) {
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
		if d.Inst().HasDest() && c.renameInFlight >= c.renameCap {
			c.stats.RenameStalls++
			return
		}
		c.front.Pop(now)
		c.rat.Link(d)
		c.rob.Push(d)
		c.iw.Insert(d, now)
		if d.IsLoad() || d.IsStore() {
			c.lsq.Insert(d)
		}
		if d.Inst().HasDest() {
			c.renameInFlight++
		}
		d.State = pipe.StateDispatched
		d.DispatchedAt = now
		c.stats.Dispatched++
		c.stats.Renamed++
	}
}

func (c *Core) fetch(now int64) {
	// Release a resolved mispredict.
	if c.unblockInst != nil && now >= c.unblockAt {
		c.fetcher.Unblock(c.unblockInst)
		c.unblockInst = nil
	}
	if now < c.fetchStallUntil || c.fetcher.Blocked() {
		return
	}
	if c.front.Free() < c.cfg.FetchWidth {
		c.stats.FetchStallQueue++
		return
	}
	p := c.cfg.PeriodPS
	group, lat := c.fetcher.FetchGroup(now, p)
	if len(group) == 0 {
		return
	}
	hit := c.cfg.Mem.L1I.HitLatency
	frontDepth := int64(hit + c.cfg.DecodeStages + c.cfg.ExtraFrontEndStages)
	readyAt := now + frontDepth*p
	if lat > hit {
		// I-cache miss: the whole front-end waits for the refill.
		readyAt = now + int64(lat+c.cfg.DecodeStages+c.cfg.ExtraFrontEndStages)*p
		c.fetchStallUntil = now + int64(lat-hit)*p
	}
	for _, d := range group {
		c.front.Push(d, readyAt)
	}
}
