package ooo

import (
	"flywheel/internal/branch"
	"flywheel/internal/mem"
	"flywheel/internal/pipe"
	"flywheel/internal/power"
)

// Stats reports one baseline run. Counters accumulate during Run;
// derived metrics are filled in when the run completes.
type Stats struct {
	// Progress.
	Cycles  uint64
	TimePS  int64
	Retired uint64

	// Pipeline activity.
	FetchGroups uint64
	Fetched     uint64
	Dispatched  uint64
	Issued      uint64
	RegReads    uint64
	RegWrites   uint64

	// Stalls and control flow.
	PredLookups           uint64
	PredUpdates           uint64
	Mispredicts           uint64
	DispatchStallResource uint64
	DispatchStallRename   uint64
	FetchStallQueue       uint64

	// Derived.
	IPC            float64
	BranchAccuracy float64
	AvgIWOccupancy float64

	// Structures.
	IWInserted uint64
	IWSelected uint64
	Forwards   uint64
	FUIssued   [pipe.NumFUGroups]uint64
	L1I        mem.CacheStats
	L1D        mem.CacheStats
	L2         mem.CacheStats

	// Frontend microarchitecture observables.
	CondBranches uint64
	Prefetch     mem.PrefetchStats
	Demand       mem.DemandStats

	// Pred is the raw predictor counter block; sampled execution
	// differences it across window marks to compute per-window accuracy.
	Pred branch.Stats
}

func (c *Core) finalizeStats() { c.stats = c.StatsSnapshot() }

// StatsSnapshot returns the statistics as of now with derived metrics
// filled in. It does not disturb the running counters and may be called
// repeatedly; sampled execution reads it at window marks.
func (c *Core) StatsSnapshot() Stats {
	s := c.stats
	s.Cycles = c.domain.Cycles
	s.TimePS = c.sys.Now()
	s.Fetched = c.fetcher.Fetched
	if s.Cycles > 0 {
		s.IPC = float64(s.Retired) / float64(s.Cycles)
	}
	s.PredLookups = c.pred.Stats.Lookups
	s.PredUpdates = c.pred.Stats.Updates
	s.BranchAccuracy = c.pred.Stats.Accuracy()
	s.AvgIWOccupancy = c.iw.AvgOccupancy()
	s.IWInserted = c.iw.Inserted
	s.IWSelected = c.iw.Selected
	s.Forwards = c.lsq.Forwards
	s.FUIssued = c.fu.Issued
	s.L1I = c.hier.L1I.Stats
	s.L1D = c.hier.L1D.Stats
	s.L2 = c.hier.L2.Stats
	s.CondBranches = c.pred.Stats.CondBranches
	s.Prefetch = c.hier.PrefetchStats()
	s.Demand = c.hier.DemandStats()
	s.Pred = c.pred.Stats
	return s
}

// Stats returns the current statistics (final after Run returns).
func (c *Core) Stats() Stats { return c.stats }

// Warmer exposes functional warming over this core's caches and predictor;
// call before Run, then Warmer().Finish() to clear the warm-up statistics.
func (c *Core) Warmer() *pipe.Warmer { return pipe.NewWarmer(c.pred, c.hier) }

// Activity converts the run into the power model's event record. The
// baseline is a single clock domain; its grid is modelled as global +
// front-end + back-end local grids all ticking every cycle.
func (s Stats) Activity() power.Activity {
	return power.Activity{
		TimePS:      s.TimePS,
		FECycles:    s.Cycles,
		BECycles:    s.Cycles,
		FetchGroups: s.FetchGroups,
		Fetched:     s.Fetched,
		Renamed:     s.Dispatched,
		BPLookups:   s.PredLookups,
		BPUpdates:   s.PredUpdates,
		IWInserts:   s.IWInserted,
		IWSelects:   s.IWSelected,
		RegReads:    s.RegReads,
		RegWrites:   s.RegWrites,
		FUOps:       s.FUIssued,
		ROBWrites:   s.Dispatched,
		Retires:     s.Retired,
		LSQOps:      s.L1D.Accesses() + s.Forwards,
		L1I:         s.L1I,
		L1D:         s.L1D,
		L2:          s.L2,
	}
}
