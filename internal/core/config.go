package core

import (
	"flywheel/internal/branch"
	"flywheel/internal/mem"
	"flywheel/internal/pipe"
)

// Config parameterizes the Flywheel machine. Structural parameters default
// to the paper's Table 2; clock ratios follow the §4/§5 sweep convention:
// the front-end boost applies whenever the front-end runs, and the back-end
// boost applies only in trace-execution mode (in trace-creation mode the
// back-end is synchronous with the slow issue window).
type Config struct {
	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int

	IWSize        int
	ROBSize       int
	LSQSize       int
	FrontQueueCap int

	// DecodeStages counts front-end stages between fetch and dispatch
	// (decode + rename phase one). The Flywheel front-end carries one more
	// rename stage than the baseline (the Update stage lives in the
	// back-end; the split renaming costs "about 2-3%", §3.5).
	DecodeStages int
	// RedirectCycles is the post-resolution fetch redirect time.
	RedirectCycles int
	// BranchResolveCycles models the issue-to-execute depth for mispredict
	// detection; the Flywheel back-end carries the extra Register Update
	// stage, so its default is one more than the baseline's.
	BranchResolveCycles int
	// SyncCycles is the dual-clock issue window synchronization delay, in
	// back-end cycles, applied when dispatch crosses into the window
	// (§3.2).
	SyncCycles int
	// CheckpointCycles is the FRT->RT copy cost at a trace change.
	CheckpointCycles int
	// DivergenceDetectCycles models the issue-to-execute depth of the
	// replay path: a trace mispredict is architecturally known only when
	// the offending branch executes, not when the fill buffer delivers the
	// mismatching slot.
	DivergenceDetectCycles int

	// BasePeriodPS is the trace-creation (issue-window-limited) clock
	// period. The front-end and trace-execution back-end periods derive
	// from it via the boost percentages.
	BasePeriodPS int64
	// FEBoostPct speeds up the front-end domain: 100 means twice the
	// baseline clock (period halves).
	FEBoostPct int
	// BEBoostPct speeds up the back-end in trace-execution mode: 50 means
	// 1.5x the baseline clock. Without the EC it has no effect.
	BEBoostPct int

	// ECEnabled false gives the "Register Allocation" configuration of
	// Figure 11: dual-clock issue window and two-phase renaming without
	// pre-scheduled execution.
	ECEnabled bool
	EC        ECConfig

	Pools PoolConfig
	// RedistributionInterval is the pool-counter evaluation period in
	// back-end cycles (500,000 in §3.5); RedistributionCycles is the stall
	// charged when a redistribution happens (100 cycles), which also
	// invalidates the EC. RedistributionMinStalls is the pressure
	// threshold for growing a pool.
	RedistributionInterval  uint64
	RedistributionCycles    int
	RedistributionMinStalls uint64

	FU     pipe.FUConfig
	Branch branch.Config
	Mem    mem.HierarchyConfig

	// MaxCycles guards against deadlock bugs; 0 means no limit.
	MaxCycles uint64
}

// DefaultConfig returns the Table 2 Flywheel machine at a 1 ns base clock
// with both boosts at zero (equal-clock comparison of Figure 11).
func DefaultConfig() Config {
	period := int64(1000)
	return Config{
		FetchWidth:    4,
		DispatchWidth: 4,
		IssueWidth:    6,
		CommitWidth:   4,
		IWSize:        128,
		ROBSize:       256,
		LSQSize:       64,
		FrontQueueCap: 32,

		DecodeStages:           3,
		RedirectCycles:         1,
		BranchResolveCycles:    2,
		SyncCycles:             1,
		CheckpointCycles:       1,
		DivergenceDetectCycles: 6,

		BasePeriodPS: period,
		FEBoostPct:   0,
		BEBoostPct:   0,

		ECEnabled: true,
		EC:        DefaultECConfig(),
		Pools:     DefaultPoolConfig(),

		RedistributionInterval:  500_000,
		RedistributionCycles:    100,
		RedistributionMinStalls: 64,

		FU:     pipe.DefaultFUConfig(),
		Branch: branch.DefaultConfig(),
		Mem:    mem.DefaultHierarchyConfig(period),
	}
}

// FEPeriodPS returns the front-end clock period.
func (c Config) FEPeriodPS() int64 {
	return c.BasePeriodPS * 100 / int64(100+c.FEBoostPct)
}

// BEFastPeriodPS returns the trace-execution back-end clock period. A
// machine without the Execution Cache never enters trace-execution mode,
// so it has no fast clock: its back-end always runs at the base period and
// BEBoostPct is never read.
func (c Config) BEFastPeriodPS() int64 {
	if !c.ECEnabled {
		return c.BasePeriodPS
	}
	return c.BasePeriodPS * 100 / int64(100+c.BEBoostPct)
}
