package core

import (
	"fmt"

	"flywheel/internal/branch"
	"flywheel/internal/clock"
	"flywheel/internal/emu"
	"flywheel/internal/mem"
	"flywheel/internal/pipe"
)

// Mode is the Flywheel operating mode.
type Mode int

// Operating modes (§3): in trace-creation mode the front-end feeds the
// dual-clock issue window and traces are recorded; in trace-execution mode
// the execution core replays issue units straight from the Execution Cache
// at the higher back-end clock.
const (
	ModeBuild Mode = iota
	ModeReplay
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeReplay {
		return "trace-execution"
	}
	return "trace-creation"
}

// Core is one Flywheel machine instance wired to an architectural oracle.
type Core struct {
	cfg Config

	window  *oracleWindow
	fe      *clock.Domain
	be      *clock.Domain
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
	ren     *Renamer
	ec      *EC

	mode Mode

	// Trace-creation state.
	builder         *Builder
	sealing         bool
	nextBuildPC     uint64
	nextBuildSeq    uint64
	fetchStallUntil int64

	// Checkpoint gate: instructions of the current trace (seq >= gateSeq)
	// may not pass Register Update (modelled at issue) before gateUntil.
	gateSeq   uint64
	gateUntil int64

	// Trace-execution state.
	cur  *traceRun
	next *traceRun
	// runPool recycles finished traceRuns (see newRun/releaseRun).
	runPool []*traceRun
	// draining is set after a divergence: no further units issue and the
	// machine waits for the ROB to empty (but not before drainReadyAt,
	// the divergence-detection depth) before the FRT checkpoint.
	draining     bool
	drainReadyAt int64
	// lastFailedResume is the resume point of the last diverged replay
	// attempt; a repeat failure at the same point forces trace creation.
	lastFailedResume uint64

	// Redistribution bookkeeping.
	redistDeadline   uint64
	redistStallUntil int64

	// Reused per-cycle scratch buffers (hot-loop allocation avoidance).
	slotScratch []Slot
	replayRecs  []emu.Trace
	replayInsts []*pipe.DynInst

	// Mode-time accounting.
	lastModeSwitch int64

	// scratchUntil suppresses Execution Cache writes for traces opened
	// before this retired-instruction count (see Builder.Scratch); sampled
	// execution sets it across each post-resume warm-up.
	scratchUntil uint64
	// divergedPC is the start address of the last trace whose recorded
	// path went stale (a real divergence, not a window-end stream
	// exhaustion). The next trace built at that address replaces the stale
	// one even inside the scratch span — suppressing that rebuild would
	// leave the stale trace in place to diverge again on every lookup.
	divergedPC uint64

	halted  bool
	sawHalt bool
	stats   Stats

	// Retirement marks for sampled execution: markFn fires with a stats
	// snapshot the first time Retired reaches each ascending mark.
	marks    []uint64
	markFn   func(i int, s Stats)
	nextMark int
}

// New builds a Flywheel core around the oracle source: a live *emu.Stream,
// a trace-cache recorder or reader (package trace), or anything else
// honouring the Next/Fill iterator contract.
func New(cfg Config, stream pipe.InstSource) *Core {
	pred := branch.New(cfg.Branch)
	hier := mem.NewHierarchy(cfg.Mem)
	window := newOracleWindow(stream)
	arena := pipe.NewArena(pipe.ArenaCapacity(cfg.ROBSize, cfg.FrontQueueCap, cfg.FetchWidth))
	c := &Core{
		cfg:     cfg,
		window:  window,
		fe:      clock.NewDomain("front-end", cfg.FEPeriodPS(), 0),
		be:      clock.NewDomain("back-end", cfg.BasePeriodPS, 0),
		pred:    pred,
		hier:    hier,
		arena:   arena,
		fetcher: pipe.NewFetcher(window, pred, hier, cfg.FetchWidth, arena),
		front:   clock.NewQueue[*pipe.DynInst](cfg.FrontQueueCap),
		iw:      pipe.NewIssueWindow(cfg.IWSize),
		rob:     pipe.NewROB(cfg.ROBSize),
		lsq:     pipe.NewLSQ(cfg.LSQSize),
		fu:      pipe.NewFUPool(cfg.FU),
		rat:     pipe.NewRAT(arena),
		ren:     NewRenamer(cfg.Pools),
		ec:      NewEC(cfg.EC),
		runPool: make([]*traceRun, 0, 4),
	}
	c.sys = clock.NewSystem(c.be, c.fe)
	c.redistDeadline = cfg.RedistributionInterval
	c.lastFailedResume = noFailedResume
	c.divergedPC = noDivergedPC
	return c
}

// noFailedResume is the idle value of the failed-resume latch.
const noFailedResume = ^uint64(0)

// noDivergedPC is the idle value of the diverged-trace latch.
const noDivergedPC = ^uint64(0)

// Run simulates until the program halts and returns the run statistics.
func (c *Core) Run() (Stats, error) {
	guard := uint64(0)
	lastRetired := uint64(0)
	for !c.halted {
		now, fired := c.sys.Advance()
		for _, d := range fired {
			switch d {
			case c.be:
				c.beTick(now)
			case c.fe:
				if c.mode == ModeBuild && !c.fe.Gated() {
					c.feTick(now)
				}
			}
		}
		if c.markFn != nil {
			for c.nextMark < len(c.marks) && c.stats.Retired >= c.marks[c.nextMark] {
				c.markFn(c.nextMark, c.StatsSnapshot())
				c.nextMark++
			}
		}
		if c.cfg.MaxCycles > 0 && c.be.Cycles > c.cfg.MaxCycles {
			return c.stats, fmt.Errorf("core: exceeded max cycles (%d)", c.cfg.MaxCycles)
		}
		if c.stats.Retired == lastRetired {
			guard++
			if guard > 400_000 {
				return c.stats, fmt.Errorf(
					"core: no retirement progress at t=%dps (mode=%v rob=%d iw=%d front=%d drain=%v sealing=%v fetchBlocked=%v)",
					now, c.mode, c.rob.Len(), c.iw.Len(), c.front.Len(), c.draining, c.sealing, c.fetcher.Blocked())
			}
		} else {
			guard = 0
			lastRetired = c.stats.Retired
		}
	}
	c.finalizeStats()
	return c.stats, nil
}

// SetMarks arranges for fn to be called with a statistics snapshot the
// first time the retired-instruction count reaches each mark (ascending).
// Sampled execution sets two marks per detailed window to delimit the
// measurement interval. Replaces any previous marks.
func (c *Core) SetMarks(marks []uint64, fn func(i int, s Stats)) {
	c.marks, c.markFn, c.nextMark = marks, fn, 0
}

// Resume clears the end-of-stream halt so Run can be called again after
// the oracle window's source is replenished; sampled execution resumes the
// same core for each detailed window so that the Execution Cache, rename
// pools, predictor, and cache hierarchy all carry across. It reports false
// if the program truly halted (retired a HALT) — there is nothing left to
// run then.
//
// scratchInsts suppresses Execution Cache writes for traces opened within
// that many retired instructions of the resume: the refilling pipeline
// issues in narrow groups, and a trace recorded from it would replace the
// warm-built trace at the same address and slow every later replay. The
// suppressed builders still count blocks, so capacity sealing — and with
// it the seal-time EC lookup that re-enters trace execution — is
// undisturbed.
func (c *Core) Resume(scratchInsts uint64) bool {
	if c.sawHalt {
		return false
	}
	c.scratchUntil = c.stats.Retired + scratchInsts
	c.halted = false
	c.window.reopen()
	c.fetcher.Reopen()
	// A trace still under construction would span the fast-forward gap: its
	// slot offsets are relative to its start sequence number, so it could
	// never pair with the post-gap stream. Abandon it; the next dispatch
	// opens a fresh trace.
	c.builder = nil
	c.sealing = false
	// Likewise an in-flight replay: its start sequence number is pre-gap,
	// so pairing against the re-anchored window would read below base.
	// Tear it down and restart from the front-end; trace execution resumes
	// at the first post-gap EC hit.
	c.releaseRun(c.cur)
	c.releaseRun(c.next)
	c.cur, c.next = nil, nil
	c.draining = false
	c.lastFailedResume = noFailedResume
	c.divergedPC = noDivergedPC
	if c.mode == ModeReplay {
		c.exitToBuild(c.sys.Now())
	}
	return true
}

// bePeriod returns the current back-end period (mode dependent).
func (c *Core) bePeriod() int64 { return c.be.Period() }

// beTick runs one back-end clock edge.
func (c *Core) beTick(now int64) {
	if c.mode == ModeReplay {
		c.stats.BECyclesReplay++
	} else {
		c.stats.BECyclesBuild++
	}
	c.retire(now)
	c.maybeRedistribute(now)
	switch c.mode {
	case ModeBuild:
		c.buildIssue(now)
		c.checkSeal(now)
	case ModeReplay:
		c.replayTick(now)
	}
	c.checkHalt(now)
}

// feTick runs one front-end clock edge (trace-creation mode only).
func (c *Core) feTick(now int64) {
	c.dispatch(now)
	c.fetch(now)
}

// retire commits up to CommitWidth done instructions in program order and
// drives the trace-boundary events that hang off retirement (mispredict
// checkpoints, FRT updates).
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
		in := head.Inst()
		if in.HasDest() {
			c.ren.RetireDest(in.Rd, head.LID[0])
			c.stats.RegWrites++
		}
		if head.IsLoad() || head.IsStore() {
			c.lsq.Remove(head)
		}
		c.stats.Retired++
		if head.IsControl() && c.mode == ModeBuild {
			c.pred.Update(head.Trace.PC, in, head.Trace.Taken, head.Trace.NextPC)
			if head.Mispredicted {
				c.onMispredictRetire(now, head)
			}
		}
		halt := head.IsHalt()
		c.arena.Free(head)
		if halt {
			c.halted = true
			c.sawHalt = true
			return
		}
	}
}

// checkHalt detects the no-more-work condition for programs that end by
// stream exhaustion rather than an explicit halt.
func (c *Core) checkHalt(now int64) {
	if !c.window.Drained() {
		return
	}
	if c.rob.Len() != 0 || c.front.Len() != 0 || c.iw.Len() != 0 {
		return
	}
	if c.cur != nil && len(c.cur.buffered) > 0 {
		return
	}
	if _, ok := c.window.NextUnconsumed(); ok {
		return
	}
	c.halted = true
}

// maybeRedistribute evaluates the rename-pool pressure counters every
// RedistributionInterval back-end cycles (§3.5: 500k cycles, 100-cycle
// penalty, full EC invalidation).
func (c *Core) maybeRedistribute(now int64) {
	if c.be.Cycles < c.redistDeadline {
		return
	}
	c.redistDeadline += c.cfg.RedistributionInterval
	plan := c.ren.MaybeRedistribute(c.cfg.RedistributionMinStalls)
	if !plan.Changed {
		return
	}
	c.stats.Redistributions++
	c.ec.InvalidateAll()
	c.redistStallUntil = now + int64(c.cfg.RedistributionCycles)*c.bePeriod()
	// Stored LIDs are stale everywhere: abandon the trace being built.
	c.builder = nil
	c.sealing = false
	// An in-flight replay will hit broken chains and unwind through the
	// normal abort path; stop issuing units immediately.
	if c.mode == ModeReplay && c.cur != nil {
		c.cur.broken = true
	}
}

// switchMode flips between trace creation and execution, retiming the
// back-end clock (both speeds divide one master clock; the switch itself is
// free, §3) and gating or waking the front-end domain.
func (c *Core) switchMode(now int64, m Mode) {
	if m == c.mode {
		return
	}
	// Account the time spent in the old mode.
	if c.mode == ModeReplay {
		c.stats.ReplayTimePS += now - c.lastModeSwitch
	} else {
		c.stats.BuildTimePS += now - c.lastModeSwitch
	}
	c.lastModeSwitch = now
	c.mode = m
	if m == ModeReplay {
		c.be.SetPeriod(c.cfg.BEFastPeriodPS(), now)
		c.fe.Gate()
	} else {
		c.be.SetPeriod(c.cfg.BasePeriodPS, now)
		c.fe.Ungate()
	}
	c.stats.ModeSwitches++
}
