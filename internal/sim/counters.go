package sim

import (
	"flywheel/internal/pipe"
	"flywheel/internal/power"
)

// resultFrom fills a Result for cfg from one counter record: the final
// record of an exact run, or the summed window deltas of a sampled one.
// Ratios are derived from the record's raw counts; energy is left to the
// caller, which knows whether the record is one whole run or a sum of
// windows.
func resultFrom(cfg RunConfig, c pipe.Counters) Result {
	r := Result{
		Config:           cfg,
		TimePS:           c.TimePS,
		Cycles:           c.BECycles,
		Retired:          c.Retired,
		Divergences:      c.Divergences,
		Mispredicts:      c.Mispredicts,
		BranchAccuracy:   c.Pred.Accuracy(),
		CondBranches:     c.Pred.CondBranches,
		PrefetchIssued:   c.Prefetch.Issued,
		PrefetchUseful:   c.Prefetch.Useful,
		PrefetchLate:     c.Prefetch.Late,
		PrefetchAccuracy: c.Prefetch.Accuracy(),
		PrefetchCoverage: c.Prefetch.Coverage(),
		AvgDataCycles:    c.Demand.AvgDataCycles(),
		DemandL2HitRate:  c.Demand.L2HitRate(),
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Retired) / float64(r.Cycles)
	}
	if r.TimePS > 0 {
		r.ECResidency = float64(c.ReplayPS) / float64(r.TimePS)
	}
	return r
}

// activity converts a counter record into the power model's event record.
// It is linear in the record, so the activity of an interval is the
// activity of its counter delta.
func activity(c pipe.Counters) power.Activity {
	return power.Activity{
		TimePS:      c.TimePS,
		FECycles:    c.FECycles,
		BECycles:    c.BECycles,
		FetchGroups: c.FetchGroups,
		Fetched:     c.Fetched,
		Renamed:     c.Renamed,
		BPLookups:   c.Pred.Lookups,
		BPUpdates:   c.Pred.Updates,
		IWInserts:   c.IWInserted,
		IWSelects:   c.IWSelected,
		RegReads:    c.RegReads,
		RegWrites:   c.RegWrites,
		FUOps:       c.FUIssued,
		ROBWrites:   c.Dispatched + c.IssuedReplay,
		Retires:     c.Retired,
		LSQOps:      c.L1D.Accesses() + c.Forwards,
		L1I:         c.L1I,
		L1D:         c.L1D,
		L2:          c.L2,

		ECTagLookups:  c.EC.TagLookups,
		ECBlockReads:  c.EC.BlockReads,
		ECBlockWrites: c.EC.BlockWrites,
		UpdateOps:     c.UpdateOps,
		Checkpoints:   c.Checkpoints + c.SRTSwaps,
	}
}
