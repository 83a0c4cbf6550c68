package pipe

import "flywheel/internal/isa"

// FUGroup partitions functional units, mirroring the paper's Table 2.
type FUGroup uint8

// Functional unit groups.
const (
	GIntALU FUGroup = iota // also executes branches and jumps
	GIntMulDiv
	GMem // load/store ports
	GFPAdd
	GFPMulDiv
	numFUGroups
)

// NumFUGroups is the number of functional unit groups.
const NumFUGroups = int(numFUGroups)

// String names the group.
func (g FUGroup) String() string {
	switch g {
	case GIntALU:
		return "int-alu"
	case GIntMulDiv:
		return "int-muldiv"
	case GMem:
		return "mem-port"
	case GFPAdd:
		return "fp-add"
	case GFPMulDiv:
		return "fp-muldiv"
	default:
		return "fu?"
	}
}

// GroupOf maps an instruction class to its functional unit group.
func GroupOf(c isa.Class) FUGroup {
	switch c {
	case isa.ClassIntMul, isa.ClassIntDiv:
		return GIntMulDiv
	case isa.ClassLoad, isa.ClassStore:
		return GMem
	case isa.ClassFPAdd:
		return GFPAdd
	case isa.ClassFPMul, isa.ClassFPDiv:
		return GFPMulDiv
	default:
		// Integer ALU ops, branches, jumps, nops, halt.
		return GIntALU
	}
}

// FUConfig sizes the execution resources.
type FUConfig struct {
	// Count is the number of units per group.
	Count [NumFUGroups]int
	// Latency is the execution latency in cycles per class.
	Latency [isa.NumClasses]int
	// Unpipelined marks classes whose unit is busy for the whole latency
	// (dividers); pipelined units accept a new operation every cycle.
	Unpipelined [isa.NumClasses]bool
}

// DefaultFUConfig returns the paper's Table 2 mix: 4 integer ALUs,
// 2 integer MUL/DIV, 2 memory ports, 2 FP adders, 1 FP MUL/DIV.
func DefaultFUConfig() FUConfig {
	var c FUConfig
	c.Count[GIntALU] = 4
	c.Count[GIntMulDiv] = 2
	c.Count[GMem] = 2
	c.Count[GFPAdd] = 2
	c.Count[GFPMulDiv] = 1

	c.Latency[isa.ClassNop] = 1
	c.Latency[isa.ClassIntALU] = 1
	c.Latency[isa.ClassIntMul] = 3
	c.Latency[isa.ClassIntDiv] = 12
	c.Latency[isa.ClassLoad] = 1 // address generation; cache latency added by the core
	c.Latency[isa.ClassStore] = 1
	c.Latency[isa.ClassBranch] = 1
	c.Latency[isa.ClassJump] = 1
	c.Latency[isa.ClassFPAdd] = 2
	c.Latency[isa.ClassFPMul] = 4
	c.Latency[isa.ClassFPDiv] = 12
	c.Latency[isa.ClassHalt] = 1
	c.Unpipelined[isa.ClassIntDiv] = true
	c.Unpipelined[isa.ClassFPDiv] = true
	return c
}

// FUPool tracks functional unit occupancy on the picosecond timeline.
type FUPool struct {
	cfg FUConfig
	// busyUntil per unit; pipelined operations do not set it.
	busyUntil [NumFUGroups][]int64
	// usedThisEdge counts issues per group at the current select edge.
	usedThisEdge [NumFUGroups]int
	edgeTime     int64
	// Issued counts operations per group (for utilization stats).
	Issued [NumFUGroups]uint64
}

// NewFUPool builds a pool from the configuration.
func NewFUPool(cfg FUConfig) *FUPool {
	p := &FUPool{cfg: cfg}
	for g := 0; g < NumFUGroups; g++ {
		p.busyUntil[g] = make([]int64, cfg.Count[g])
	}
	return p
}

// Latency returns the execution latency for a class, in cycles.
func (p *FUPool) Latency(c isa.Class) int { return p.cfg.Latency[c] }

// BeginCycle resets the per-edge issue counters; the core calls it once per
// select edge.
func (p *FUPool) BeginCycle(now int64) {
	if now != p.edgeTime {
		p.edgeTime = now
		for g := range p.usedThisEdge {
			p.usedThisEdge[g] = 0
		}
	}
}

// TryReserve claims a unit for one instruction of the given class at the
// current edge. It reports false when no unit is available. periodPS is
// the issuing domain's clock period (needed to hold unpipelined units).
func (p *FUPool) TryReserve(c isa.Class, now, periodPS int64) bool {
	g := GroupOf(c)
	free := -1
	avail := 0
	for i, bu := range p.busyUntil[g] {
		if bu <= now {
			avail++
			if free < 0 {
				free = i
			}
		}
	}
	if avail-p.usedThisEdge[g] <= 0 {
		return false
	}
	p.usedThisEdge[g]++
	p.Issued[g]++
	if p.cfg.Unpipelined[c] {
		p.busyUntil[g][free] = now + int64(p.cfg.Latency[c])*periodPS
	}
	return true
}

// AvailableFor returns how many more instructions needing the given group
// could issue at the current edge (after BeginCycle and any reservations
// already made this edge).
func (p *FUPool) AvailableFor(g FUGroup, now int64) int {
	avail := 0
	for _, bu := range p.busyUntil[g] {
		if bu <= now {
			avail++
		}
	}
	return avail - p.usedThisEdge[g]
}

// Reset clears all occupancy (between runs).
func (p *FUPool) Reset() {
	for g := range p.busyUntil {
		for i := range p.busyUntil[g] {
			p.busyUntil[g][i] = 0
		}
		p.usedThisEdge[g] = 0
		p.Issued[g] = 0
	}
	p.edgeTime = 0
}
