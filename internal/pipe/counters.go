package pipe

import (
	"flywheel/internal/branch"
	"flywheel/internal/mem"
)

// Counters is the counter record of a timing-core run: every raw count the
// baseline core and the Flywheel core keep, as of one instant. Both cores
// count into it and return it from Counters, Run and every SetMarks
// callback. It holds counts only: ratios (IPC, trace-execution residency,
// branch accuracy) are derived where they are read. Every field is an
// integer or a struct or array of integers, and no field is copied from
// another, so the record of an interval is the fieldwise difference of two
// records. A counter is added here and at its increment site; a count one
// core has no structure for stays zero on that core.
type Counters struct {
	// Time and clock edges. The baseline's single clock grid spans both
	// domains, so its front-end edges are its back-end edges.
	TimePS        int64
	ReplayPS      int64  // time in trace-execution mode
	FECycles      uint64 // active (ungated) front-end edges
	FEGatedCycles uint64
	BECycles      uint64
	ReplayCycles  uint64 // back-end edges in trace-execution mode
	Retired       uint64

	// Front end. The baseline renames at dispatch.
	FetchGroups           uint64
	Fetched               uint64
	Dispatched            uint64
	Renamed               uint64
	FetchStallQueue       uint64
	DispatchStallResource uint64
	RenameStalls          uint64

	// Issue. IWSelected counts instructions issued from the issue window;
	// IssuedReplay those issued from the Execution Cache.
	IWInserted   uint64
	IWSelected   uint64
	IssuedReplay uint64
	ReplayUnits  uint64
	UpdateOps    uint64
	RegReads     uint64
	RegWrites    uint64
	Forwards     uint64
	FUIssued     [NumFUGroups]uint64

	// Control flow and trace behaviour. Mispredicts are front-end
	// mispredicts; Divergences are trace-path mispredicts in
	// trace-execution mode.
	Mispredicts         uint64
	Divergences         uint64
	TraceChanges        uint64
	BrokenReplays       uint64
	ModeSwitches        uint64
	Checkpoints         uint64
	SRTSwaps            uint64
	Redistributions     uint64
	ReplayFillStalls    uint64
	ReplayStallResource uint64
	ReplayStallData     uint64

	// Structures.
	EC       ECStats
	Pred     branch.Stats
	L1I      mem.CacheStats
	L1D      mem.CacheStats
	L2       mem.CacheStats
	Prefetch mem.PrefetchStats
	Demand   mem.DemandStats
}

// ECStats counts Execution Cache activity.
type ECStats struct {
	TagLookups     uint64
	TagHits        uint64
	BlockReads     uint64
	BlockWrites    uint64
	TracesBuilt    uint64
	TracesReplayed uint64
	SlotsStored    uint64
	SlotsReplayed  uint64
	BrokenChains   uint64
	Invalidations  uint64
}

// ReadStructures fills the counts kept by the structures both cores are
// built from: the fetcher with its branch predictor and cache hierarchy,
// the issue window, the load/store queue and the functional units.
func (s *Counters) ReadStructures(f *Fetcher, iw *IssueWindow, lsq *LSQ, fu *FUPool) {
	s.FetchGroups, s.Fetched = f.Groups, f.Fetched
	s.IWInserted, s.IWSelected = iw.Inserted, iw.Selected
	s.Forwards, s.FUIssued = lsq.Forwards, fu.Issued
	s.Pred = f.pred.Stats
	h := f.hier
	s.L1I, s.L1D, s.L2 = h.L1I.Stats, h.L1D.Stats, h.L2.Stats
	s.Prefetch, s.Demand = h.PrefetchStats(), h.DemandStats()
}
