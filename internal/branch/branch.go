// Package branch implements the branch prediction machinery of the modelled
// machines. The conditional-direction predictor is pluggable behind the
// DirectionPredictor interface — G-share (12-bit global history, 2048-entry
// pattern history table of 2-bit counters, per the paper's Table 2) is the
// default, a TAGE predictor models a modern frontend, and an always-taken
// degenerate exists for differential testing. The branch target buffer for
// indirect jumps and the return-address stack are shared by all direction
// predictors.
//
// The timing cores fetch down the architecturally correct path and use the
// predictor only to decide *whether the real machine would have mispredicted*
// — on disagreement they charge the full redirect penalty, which is the
// quantity the paper's experiments depend on.
package branch

import (
	"flywheel/internal/isa"
)

// Config sizes the predictor.
type Config struct {
	HistoryBits int // G-share global history length
	TableSize   int // pattern history table entries (power of two)
	BTBSize     int // branch target buffer entries (power of two)
	RASDepth    int // return address stack depth
	// Direction selects the conditional-direction predictor: "" or
	// DirGShare for the paper's G-share, DirTAGE for the tagged
	// geometric-history predictor, DirAlwaysTaken for the degenerate.
	// G-share reads HistoryBits/TableSize; TAGE geometry is fixed (see
	// tage.go) so differently sized G-share sweeps stay comparable.
	Direction string
}

// DefaultConfig matches the paper's Table 2 (G-share, 12-bit history,
// 2048 entries) with a conventional BTB and RAS.
func DefaultConfig() Config {
	return Config{HistoryBits: 12, TableSize: 2048, BTBSize: 512, RASDepth: 16, Direction: DirGShare}
}

// Stats counts prediction outcomes.
type Stats struct {
	Lookups       uint64
	CondBranches  uint64
	CondWrong     uint64 // conditional direction mispredicts
	IndirectJumps uint64
	IndirectWrong uint64 // indirect target mispredicts
	ReturnsRight  uint64
	Updates       uint64
}

// Mispredicts is the total number of mispredictions.
func (s Stats) Mispredicts() uint64 { return s.CondWrong + s.IndirectWrong }

// Accuracy is the fraction of correctly predicted mispredictable
// instructions.
func (s Stats) Accuracy() float64 {
	total := s.CondBranches + s.IndirectJumps
	if total == 0 {
		return 1
	}
	return 1 - float64(s.Mispredicts())/float64(total)
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// Predictor is the combined direction/target predictor: a pluggable
// conditional-direction predictor plus the shared BTB and RAS.
type Predictor struct {
	cfg    Config
	dir    DirectionPredictor
	btb    []btbEntry
	ras    []uint64
	rasTop int // number of valid entries
	Stats  Stats
}

// New builds a predictor. Table sizes are rounded up to powers of two and
// the Direction name is canonicalized ("" means G-share). Unknown direction
// names panic: validate with KnownDirection first (sim does).
func New(cfg Config) *Predictor {
	cfg = cfg.normalize()
	return &Predictor{
		cfg: cfg,
		dir: newDirection(cfg),
		btb: make([]btbEntry, cfg.BTBSize),
		ras: make([]uint64, cfg.RASDepth),
	}
}

// normalize fills c's defaults and rounds its table sizes up to powers of
// two.
func (c Config) normalize() Config {
	if c.TableSize <= 0 {
		c.TableSize = 2048
	}
	if c.BTBSize <= 0 {
		c.BTBSize = 512
	}
	c.TableSize = ceilPow2(c.TableSize)
	c.BTBSize = ceilPow2(c.BTBSize)
	if c.RASDepth <= 0 {
		c.RASDepth = 16
	}
	if c.HistoryBits <= 0 {
		c.HistoryBits = 12
	}
	if c.Direction == "" {
		c.Direction = DirGShare
	}
	return c
}

// Config returns the predictor configuration.
func (p *Predictor) Config() Config { return p.cfg }

// CopyStateFrom copies the table state (direction predictor, BTB, RAS) and
// statistics of an identically configured predictor into this one. It lets
// warmed predictor state be cloned into a fresh core instead of replaying
// the warm branch stream. It panics on configuration mismatch (caller bug).
func (p *Predictor) CopyStateFrom(src *Predictor) {
	if p.cfg != src.cfg {
		panic("branch: CopyStateFrom with mismatched config")
	}
	p.dir.CopyStateFrom(src.dir)
	copy(p.btb, src.btb)
	copy(p.ras, src.ras)
	p.rasTop = src.rasTop
	p.Stats = src.Stats
}

// Reset returns the predictor to the state New(cfg) builds: untrained
// direction tables, an empty BTB and RAS, and zero statistics. It clears
// the tables in place when cfg is the predictor's configuration and
// replaces them otherwise, so a reused core can switch predictors.
func (p *Predictor) Reset(cfg Config) {
	if cfg = cfg.normalize(); cfg != p.cfg {
		*p = *New(cfg)
		return
	}
	p.dir.Reset()
	clear(p.btb)
	clear(p.ras)
	p.rasTop = 0
	p.Stats = Stats{}
}

func ceilPow2(n int) int {
	v := 1
	for v < n {
		v <<= 1
	}
	return v
}

func (p *Predictor) btbIndex(pc uint64) int {
	return int((pc >> 2) & uint64(len(p.btb)-1))
}

// Prediction is the front-end's guess for one control instruction.
type Prediction struct {
	Taken  bool
	Target uint64
	// TargetKnown is false when the predictor has no target to offer
	// (BTB miss on an indirect jump); the front-end must then stall until
	// resolution, which counts as a mispredict.
	TargetKnown bool
}

// isCall reports whether the instruction is a linking call.
func isCall(in isa.Instruction) bool {
	return (in.Op == isa.JAL || in.Op == isa.JALR) && in.Rd == isa.IntReg(31)
}

// isReturn reports whether the instruction is a function return.
func isReturn(in isa.Instruction) bool {
	return in.Op == isa.JALR && in.Rd == isa.IntReg(0) && in.Rs1 == isa.IntReg(31)
}

// Predict returns the prediction for a control instruction at pc and
// performs the speculative RAS bookkeeping a real front-end would do.
// Non-control instructions must not be passed.
func (p *Predictor) Predict(pc uint64, in isa.Instruction) Prediction {
	p.Stats.Lookups++
	switch in.Class() {
	case isa.ClassBranch:
		p.Stats.CondBranches++
		return Prediction{
			Taken:       p.dir.Predict(pc),
			Target:      uint64(int64(pc) + int64(in.Imm)*isa.InstBytes),
			TargetKnown: true,
		}
	case isa.ClassJump:
		if isCall(in) {
			p.pushRAS(pc + isa.InstBytes)
		}
		if in.Op != isa.JALR {
			// Direct jump: target is in the instruction.
			return Prediction{
				Taken:       true,
				Target:      uint64(int64(pc) + int64(in.Imm)*isa.InstBytes),
				TargetKnown: true,
			}
		}
		p.Stats.IndirectJumps++
		if isReturn(in) {
			if target, ok := p.popRAS(); ok {
				return Prediction{Taken: true, Target: target, TargetKnown: true}
			}
		}
		e := p.btb[p.btbIndex(pc)]
		if e.valid && e.tag == pc {
			return Prediction{Taken: true, Target: e.target, TargetKnown: true}
		}
		return Prediction{Taken: true, TargetKnown: false}
	default:
		return Prediction{}
	}
}

// Update trains the predictor with the architected outcome; the cores call
// it at retirement (the paper routes predictor updates from Retire to
// Fetch).
func (p *Predictor) Update(pc uint64, in isa.Instruction, taken bool, target uint64) {
	p.Stats.Updates++
	switch in.Class() {
	case isa.ClassBranch:
		p.dir.Update(pc, taken)
	case isa.ClassJump:
		if in.Op == isa.JALR && !isReturn(in) {
			p.btb[p.btbIndex(pc)] = btbEntry{tag: pc, target: target, valid: true}
		}
	}
}

// RecordOutcome classifies a resolved prediction for statistics. wrong is
// whether the front-end guess disagreed with the architected outcome.
func (p *Predictor) RecordOutcome(in isa.Instruction, wrong bool) {
	if !wrong {
		if isReturn(in) {
			p.Stats.ReturnsRight++
		}
		return
	}
	if in.Class() == isa.ClassBranch {
		p.Stats.CondWrong++
	} else {
		p.Stats.IndirectWrong++
	}
}

func (p *Predictor) pushRAS(ret uint64) {
	if p.rasTop == len(p.ras) {
		copy(p.ras, p.ras[1:])
		p.rasTop--
	}
	p.ras[p.rasTop] = ret
	p.rasTop++
}

func (p *Predictor) popRAS() (uint64, bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop], true
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
