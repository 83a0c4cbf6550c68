package core

import (
	"flywheel/internal/isa"
)

// Two-phase register renaming (§3.5, "direct access register file").
//
// Phase one (Register Rename, front-end): every architected register owns a
// pool of physical registers; a destination is renamed to the *next* logical
// entry of its pool (a rotating allocation), producing a logical identifier
// (LID). The pool bounds how many in-flight instructions may target the same
// architected register — exhaustion stalls rename, the capacity limitation
// the paper measures in Figure 11.
//
// Phase two (Register Update, back-end): the LID is remapped to a physical
// offset through the Remapping Table (RT). The Future Remapping Table (FRT)
// tracks the latest *committed* value per architected register (like the
// Pentium 4 Retirement RAT) and is copied into the RT at every trace-change
// checkpoint, so LIDs restart from zero in each trace and traces replay with
// preserved mappings. The Speculative Remapping Table (SRT) shadows the FRT
// at the Update stage so a cleanly-ended trace can swap tables in one cycle
// instead of waiting for retirement.
//
// The timing model tracks all three tables plus per-pool occupancy exactly;
// physical data movement is architecturally irrelevant here because the
// oracle executes values (see DESIGN.md).

// PoolConfig sizes the per-architected-register physical pools.
type PoolConfig struct {
	// TotalRegs is the physical register file size (512 for Flywheel).
	TotalRegs int
	// MinPool and MaxPool bound per-register pool sizes under adaptive
	// redistribution.
	MinPool int
	MaxPool int
}

// DefaultPoolConfig returns the Table 2 Flywheel register file: 512
// physical entries over 64 architected registers (8 each to start).
func DefaultPoolConfig() PoolConfig {
	return PoolConfig{TotalRegs: 512, MinPool: 2, MaxPool: 16}
}

// Renamer implements both phases plus the adaptive pool redistribution
// of [12]: stall counters per architected register are examined
// periodically, and registers that bottleneck get entries from rarely
// written ones (invalidating the EC, whose stored LIDs become stale).
type Renamer struct {
	cfg PoolConfig
	// size is the pool capacity per architected register.
	size [isa.NumArchRegs]int
	// head is the next LID per architected register, reset per trace.
	head [isa.NumArchRegs]uint16
	// inFlight counts un-retired destinations per architected register.
	inFlight [isa.NumArchRegs]int
	// stalls counts rename stalls per architected register since the last
	// redistribution decision.
	stalls [isa.NumArchRegs]uint64

	// Remapping table state: rot is the rotation applied when mapping
	// LIDs to physical offsets (the XOR/subtract trick of §3.4); the
	// value itself only matters for the fidelity checks in tests.
	rt  [isa.NumArchRegs]uint16
	frt [isa.NumArchRegs]uint16
	srt [isa.NumArchRegs]uint16

	// Stats.
	StallEvents     uint64
	Checkpoints     uint64
	SRTSwaps        uint64
	Redistributions uint64
}

// NewRenamer builds a renamer with pools split evenly.
func NewRenamer(cfg PoolConfig) *Renamer {
	r := &Renamer{cfg: cfg}
	r.Reset()
	return r
}

// Reset restores the even pool split and clears every table, counter and
// statistic: the state NewRenamer builds.
func (r *Renamer) Reset() {
	*r = Renamer{cfg: r.cfg}
	per := r.cfg.TotalRegs / isa.NumArchRegs
	if per < r.cfg.MinPool {
		per = r.cfg.MinPool
	}
	for i := range r.size {
		r.size[i] = per
	}
}

// PoolSize returns the current pool capacity of an architected register.
func (r *Renamer) PoolSize(reg isa.Reg) int { return r.size[reg] }

// CanRename reports whether a destination register can be renamed now:
// the pool must keep one entry for the last committed value, so at most
// size-1 destinations may be in flight.
func (r *Renamer) CanRename(rd isa.Reg) bool {
	if rd == isa.RegNone || rd == 0 {
		return true
	}
	return r.inFlight[rd] < r.size[rd]-1
}

// CanAcquire reports whether n more in-flight destinations fit in rd's pool
// (trace replay issues whole units, which may contain several writers of
// the same architected register).
func (r *Renamer) CanAcquire(rd isa.Reg, n int) bool {
	if rd == isa.RegNone || rd == 0 || !rd.Valid() {
		return true
	}
	return r.inFlight[rd]+n <= r.size[rd]-1
}

// AcquireDest claims a pool entry for an in-flight destination during
// replay (creation mode claims it in Rename).
func (r *Renamer) AcquireDest(rd isa.Reg) {
	if rd == isa.RegNone || rd == 0 || !rd.Valid() {
		return
	}
	r.inFlight[rd]++
}

// NoteStall records a rename stall on rd (feeds redistribution).
func (r *Renamer) NoteStall(rd isa.Reg) {
	r.StallEvents++
	if rd.Valid() {
		r.stalls[rd]++
	}
}

// Rename performs phase one for one instruction: it assigns the destination
// the next logical pool entry and returns the LIDs (dest, src1, src2).
// Callers must have checked CanRename.
func (r *Renamer) Rename(in isa.Instruction) [3]uint16 {
	var lid [3]uint16
	read := func(reg isa.Reg) uint16 {
		if reg == isa.RegNone || !reg.Valid() {
			return 0
		}
		return r.head[reg]
	}
	lid[1], lid[2] = read(in.Rs1), read(in.Rs2)
	if in.HasDest() {
		r.head[in.Rd]++
		if int(r.head[in.Rd]) >= r.size[in.Rd] {
			r.head[in.Rd] = 0
		}
		lid[0] = r.head[in.Rd]
		r.inFlight[in.Rd]++
	}
	return lid
}

// RetireDest releases the pool entry of a retiring destination and updates
// the FRT with its physical mapping.
func (r *Renamer) RetireDest(rd isa.Reg, lid uint16) {
	if rd == isa.RegNone || rd == 0 || !rd.Valid() {
		return
	}
	if r.inFlight[rd] > 0 {
		r.inFlight[rd]--
	}
	r.frt[rd] = r.physical(rd, lid)
}

// UpdateSRT shadows the Update-stage mapping of a destination (§3.5).
func (r *Renamer) UpdateSRT(rd isa.Reg, lid uint16) {
	if rd == isa.RegNone || rd == 0 || !rd.Valid() {
		return
	}
	r.srt[rd] = r.physical(rd, lid)
}

// physical maps (reg, LID) to the physical offset inside the register
// pool under the current rotation.
func (r *Renamer) physical(reg isa.Reg, lid uint16) uint16 {
	return uint16((int(lid) + int(r.rt[reg])) % r.size[reg])
}

// ResetTrace restarts LID generation for a new trace (the Rename Table is
// reset and LIDs start from zero, §3.5).
func (r *Renamer) ResetTrace() {
	for i := range r.head {
		r.head[i] = 0
	}
}

// CheckpointFRT performs the retirement-side checkpoint: the FRT becomes
// the RT, so LID zero maps to the latest committed value of every register.
func (r *Renamer) CheckpointFRT() {
	r.rt = r.frt
	r.Checkpoints++
	r.ResetTrace()
}

// CheckpointSRT swaps the speculative table into the RT (the one-cycle
// trace-change path available when the end of trace is detected before the
// Register Update stage).
func (r *Renamer) CheckpointSRT() {
	r.rt = r.srt
	r.SRTSwaps++
	r.ResetTrace()
}

// InFlight returns the number of in-flight destinations for a register
// (for tests).
func (r *Renamer) InFlight(reg isa.Reg) int { return r.inFlight[reg] }

// RedistributionPlan describes a pool rebalance decision.
type RedistributionPlan struct {
	Changed bool
	// Grown and Shrunk list the registers whose pools changed (for logs).
	Grown  []isa.Reg
	Shrunk []isa.Reg
}

// MaybeRedistribute inspects the stall counters and rebalances pools:
// registers responsible for most stalls take entries from pools with no
// recent pressure. It returns whether anything changed (the caller must
// then invalidate the EC and charge the redistribution penalty, §3.5).
func (r *Renamer) MaybeRedistribute(minStalls uint64) RedistributionPlan {
	plan := RedistributionPlan{}
	for {
		// Find the most-stalled register eligible to grow and the
		// least-stalled donor eligible to shrink.
		hot, cold := -1, -1
		for i := range r.stalls {
			if r.size[i] < r.cfg.MaxPool && r.stalls[i] >= minStalls &&
				(hot < 0 || r.stalls[i] > r.stalls[hot]) {
				hot = i
			}
		}
		if hot < 0 {
			break
		}
		for i := range r.stalls {
			if i == hot || r.size[i] <= r.cfg.MinPool {
				continue
			}
			// Donors must be idle (no stalls, no in-flight pressure).
			if r.stalls[i] == 0 && r.inFlight[i] < r.size[i]-1 {
				if cold < 0 || r.size[i] > r.size[cold] {
					cold = i
				}
			}
		}
		if cold < 0 {
			break
		}
		r.size[hot]++
		r.size[cold]--
		r.stalls[hot] = 0
		plan.Changed = true
		plan.Grown = append(plan.Grown, isa.Reg(hot))
		plan.Shrunk = append(plan.Shrunk, isa.Reg(cold))
	}
	for i := range r.stalls {
		r.stalls[i] = 0
	}
	if plan.Changed {
		r.Redistributions++
		// Pool shapes changed: every LID mapping is stale. Restart clean.
		for i := range r.head {
			r.head[i] = 0
			if int(r.rt[i]) >= r.size[i] {
				r.rt[i] = 0
			}
			if int(r.frt[i]) >= r.size[i] {
				r.frt[i] = 0
			}
			if int(r.srt[i]) >= r.size[i] {
				r.srt[i] = 0
			}
		}
	}
	return plan
}
