package synth

import (
	"fmt"
	"math/bits"
	"strings"

	"flywheel/internal/splitmix"
	"flywheel/internal/workload"
)

// Register conventions of every generated kernel. Fragments communicate
// only through these, so any fragment composes with any other.
//
//	r2..r7    integer chain accumulators (chain c lives in r2+c)
//	r8..r13   per-chain integer scratch
//	r14       the shared hot destination register (RegReuse sink)
//	r15       most recently loaded value
//	r16       address scratch
//	r17       branch-test scratch
//	r18       runtime xorshift state (random addressing and branch data)
//	r19       arena base pointer
//	r20       outer pass counter
//	r21       inner iteration counter (counts executed bodies)
//	r22       stride cursor (byte offset into the arena)
//	f2..f7    floating-point chain accumulators
//	f14       the loaded value converted to floating point

// WarmLabel marks where initialization ends and the measured phase begins
// in every generated kernel.
const WarmLabel = "measure"

// gen carries the emit state of one generation run.
type gen struct {
	b      strings.Builder
	r      *splitmix.Rand
	p      Profile // defaulted
	maskK  uint    // log2 of the arena size in bytes
	instrs int     // instructions emitted so far (pseudo-expanded)
}

// op emits one instruction line and counts its expanded size.
func (g *gen) op(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	fmt.Fprintf(&g.b, "\t%s\n", line)
	g.instrs += expandedLen(line)
}

// label emits a label definition.
func (g *gen) label(name string) { fmt.Fprintf(&g.b, "%s:\n", name) }

// expandedLen counts how many machine instructions an assembly line
// occupies, accounting for the multi-instruction pseudos the generator
// uses (la is always 2; li is 2 outside the imm12 range).
func expandedLen(line string) int {
	f := strings.Fields(line)
	switch f[0] {
	case "la":
		return 2
	case "li":
		var v int64
		fmt.Sscanf(f[2], "%d", &v)
		if v < -2048 || v > 2047 {
			return 2
		}
	}
	return 1
}

// Generate emits the assembly text for the profile. Same profile, same
// text: every structural choice comes from the profile's seeded generator.
func Generate(p Profile) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	p = p.Defaulted()
	g := &gen{r: newRNG(p.Seed), p: p}
	bytes := p.MemFootprintKB * 1024
	for 1<<g.maskK < bytes {
		g.maskK++
	}

	fmt.Fprintf(&g.b, "; synthetic workload %s (generated, do not edit)\n", p.Name())
	g.genInit()
	g.label(WarmLabel)
	g.genMeasuredLoop()
	fmt.Fprintf(&g.b, ".data\narena:\n\t.space %d\n", bytes)
	return g.b.String(), nil
}

// MustGenerate generates or panics; for tests and static tables.
func MustGenerate(p Profile) string {
	src, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return src
}

// Build wraps the generated kernel as a workload, ready for the registry
// or for direct use with the emulator.
func Build(p Profile) (*workload.Workload, error) {
	src, err := Generate(p)
	if err != nil {
		return nil, err
	}
	d := p.Defaulted()
	desc := fmt.Sprintf("Synthetic kernel: ILP %d, branch entropy %.2f, %d KiB data, "+
		"stride fraction %.2f, FP mix %.2f, register reuse %.2f, %d KiB code, seed %d.",
		d.ILP, d.BranchEntropy, d.MemFootprintKB, d.StrideFrac, d.FPMix,
		d.RegReuse, d.CodeFootprintKB, d.Seed)
	if d.BranchPeriod != 0 || d.ChaseFrac != 0 || d.StrideBytes != 0 {
		desc += fmt.Sprintf(" Frontend stress: branch period %d, chase fraction %.2f, stride %d B.",
			d.BranchPeriod, d.ChaseFrac, d.StrideBytes)
	}
	return &workload.Workload{
		Name:        p.Name(),
		Suite:       "synthetic",
		FP:          d.FPMix > 0,
		Description: desc,
		Source:      src,
		WarmLabel:   WarmLabel,
	}, nil
}

// genInit fills the arena with xorshift words and establishes the register
// conventions. Everything before the warm label is initialization that
// harnesses fast-forward past.
func (g *gen) genInit() {
	words := g.p.MemFootprintKB * 1024 / 8
	fillSeed := int64(g.r.Next()&0x0FFF_FFFF | 1)
	runSeed := int64(g.r.Next()&0x0FFF_FFFF | 1)

	g.op("la   r16, arena")
	g.op("li   r17, %d", words)
	g.op("li   r18, %d", fillSeed)
	g.label("fill")
	g.op("slli r15, r18, 13")
	g.op("xor  r18, r18, r15")
	g.op("srli r15, r18, 7")
	g.op("xor  r18, r18, r15")
	g.op("slli r15, r18, 17")
	g.op("xor  r18, r18, r15")
	g.op("sd   r18, 0(r16)")
	g.op("addi r16, r16, 8")
	g.op("addi r17, r17, -1")
	g.op("bnez r17, fill")

	g.op("la   r19, arena")
	g.op("li   r22, 0")
	g.op("li   r18, %d", runSeed)
	for c := 0; c < g.p.ILP; c++ {
		g.op("li   r%d, %d", 2+c, 3+2*c)
		g.op("fcvtif f%d, r%d", 2+c, 2+c)
		g.op("li   r%d, %d", 8+c, 1+c)
	}
	g.op("li   r14, 0")
	g.op("li   r15, 0")
}

// genMeasuredLoop emits the pass loop around the unrolled body ring. The
// ring is extended body by body until the static code footprint target is
// met; the inner counter r21 counts executed bodies, so one pass walks the
// ring several times regardless of ring length.
func (g *gen) genMeasuredLoop() {
	target := g.p.CodeFootprintKB * 256 // instructions (4 bytes each)

	g.op("li   r20, %d", g.p.Passes)
	g.label("pass")

	// The iteration count is fixed after the ring is sized, but r21's li
	// must be emitted before the bodies. Generate the bodies into a
	// temporary builder first, counting instructions as we go.
	outer := g.b
	outerInstrs := g.instrs
	g.b = strings.Builder{}
	g.instrs = 0
	var bodies int
	for bodies == 0 || g.instrs < target {
		g.genBody(bodies)
		bodies++
	}
	g.op("b    x0") // wrap the ring; every earlier body falls through
	ring := g.b.String()
	ringInstrs := g.instrs

	iters := innerIterFloor
	if v := bodies * ringIterPerBodies; v > iters {
		iters = v
	}
	g.b = outer
	g.instrs = outerInstrs
	g.op("li   r21, %d", iters)
	g.b.WriteString(ring)
	g.instrs += ringInstrs

	g.label("passend")
	g.op("addi r20, r20, -1")
	g.op("beqz r20, done")
	g.op("b    pass") // long jump: the ring can exceed a branch's reach
	g.label("done")
	g.op("halt")
}

// genBody emits one structurally varied ring body: a memory fragment, a
// compute fragment and a branch fragment, followed by the ring control
// that threads the bodies together. Bodies fall through to their
// successor; genMeasuredLoop wraps the last body back to x0.
func (g *gen) genBody(i int) {
	g.label(fmt.Sprintf("x%d", i))
	g.genMemFragment(i)
	g.genComputeFragment()
	g.genBranchFragment(i)
	// Ring control: one executed body decrements the inner counter. The
	// exit goes through a long jump (J reaches ±2^17 instructions) because
	// a conditional branch to passend would overflow its 12-bit
	// displacement once the ring grows past a few KiB of code.
	g.op("addi r21, r21, -1")
	g.op("bnez r21, z%d", i)
	g.op("b    passend")
	g.label(fmt.Sprintf("z%d", i))
}

// genMemFragment loads a fresh value into r15: pointer-chasing (the next
// address depends on the last loaded value), walking the arena sequentially
// (stride), or addressing it pseudo-randomly; some bodies store a chain
// accumulator back through the same address. The ChaseFrac coin is only
// flipped when the knob is set, so legacy profiles draw the exact same
// random sequence and generate byte-identical programs.
func (g *gen) genMemFragment(i int) {
	if g.p.ChaseFrac > 0 && g.r.Float() < g.p.ChaseFrac {
		// Pointer chase: fold the loaded value and the inner counter into
		// the next address. The counter term keeps the walk from collapsing
		// onto a short cycle of the arena's (fixed) value graph, while the
		// value term makes each load's address depend on the previous
		// load's data — a serial chain with no learnable stride.
		g.op("add  r16, r15, r21")
		g.op("slli r16, r16, %d", 64-(g.maskK-3))
		g.op("srli r16, r16, %d", 64-(g.maskK-3))
		g.op("slli r16, r16, 3")
		g.op("add  r16, r19, r16")
		g.op("ld   r15, 0(r16)")
	} else if g.r.Float() < g.p.StrideFrac {
		// Sequential: advance the cursor and wrap it inside the arena.
		step := 8
		if g.p.StrideBytes > 0 {
			step = g.p.StrideBytes
		}
		g.op("addi r22, r22, %d", step)
		g.op("slli r16, r22, %d", 64-g.maskK)
		g.op("srli r16, r16, %d", 64-g.maskK)
		g.op("add  r16, r19, r16")
		g.op("ld   r15, 0(r16)")
	} else {
		// Random: advance the xorshift state and mask an aligned offset.
		g.op("slli r16, r18, 13")
		g.op("xor  r18, r18, r16")
		g.op("srli r16, r18, 7")
		g.op("xor  r18, r18, r16")
		g.op("slli r16, r18, 17")
		g.op("xor  r18, r18, r16")
		g.op("slli r16, r18, %d", 64-(g.maskK-3))
		g.op("srli r16, r16, %d", 64-(g.maskK-3))
		g.op("slli r16, r16, 3")
		g.op("add  r16, r19, r16")
		g.op("ld   r15, 0(r16)")
	}
	if i%3 == 2 {
		// Every third body writes a chain accumulator back, keeping
		// stores in the mix and the arena churning.
		g.op("sd   r%d, 0(r16)", 2+g.r.Intn(g.p.ILP))
	}
}

// genComputeFragment emits the dependency-chain arithmetic: a fixed total
// of chainOpsPerBlock operations split across the profile's ILP chains
// (the remainder going to the first chains, so the total is identical at
// every ILP). Low ILP concentrates the ops into few long serial chains;
// high ILP spreads them across many short independent ones — same work,
// different critical path. Each chain is integer or floating-point per
// FPMix, and each operation funnels an extra write into the hot register
// r14 with probability RegReuse.
func (g *gen) genComputeFragment() {
	base, rem := chainOpsPerBlock/g.p.ILP, chainOpsPerBlock%g.p.ILP
	fpConverted := false
	for c := 0; c < g.p.ILP; c++ {
		perChain := base
		if c < rem {
			perChain++
		}
		if g.r.Float() < g.p.FPMix {
			if !fpConverted {
				g.op("fcvtif f14, r15")
				fpConverted = true
			}
			for k := 0; k < perChain; k++ {
				switch g.r.Intn(3) {
				case 0:
					g.op("fadd f%d, f%d, f14", 2+c, 2+c)
				case 1:
					g.op("fsub f%d, f%d, f14", 2+c, 2+c)
				default:
					g.op("fmul f%d, f%d, f14", 2+c, 2+c)
				}
				g.genReuseSink(c)
			}
			continue
		}
		for k := 0; k < perChain; k++ {
			switch g.r.Intn(4) {
			case 0:
				g.op("add  r%d, r%d, r15", 2+c, 2+c)
			case 1:
				g.op("xor  r%d, r%d, r15", 2+c, 2+c)
			case 2:
				g.op("sub  r%d, r%d, r15", 2+c, 2+c)
			default:
				g.op("addi r%d, r%d, %d", 2+c, 2+c, 1+g.r.Intn(64))
			}
			g.genReuseSink(c)
		}
	}
}

// genReuseSink funnels an independent result into the shared hot register
// with probability RegReuse. The write is never read back on the chain, so
// it adds rename-pool pressure on one architected register without adding
// dependencies.
func (g *gen) genReuseSink(c int) {
	if g.r.Float() < g.p.RegReuse {
		g.op("addi r14, r%d, %d", 8+c, 1+c)
	}
}

// genBranchFragment emits the body's conditional branch. A random-type
// branch (probability BranchEntropy) tests a bit of the freshly loaded
// pseudo-random value — an unlearnable 50/50 direction. A predictable-type
// branch tests a bit of the inner counter, so its direction flips once
// every BranchPeriod executed bodies (512 by default) — learnable by any
// predictor whose history reaches back one run length, opaque to one whose
// history is shorter. Both skip a short filler sequence, so taken and
// not-taken paths differ.
func (g *gen) genBranchFragment(i int) {
	if g.r.Float() < g.p.BranchEntropy {
		g.op("andi r17, r15, %d", 1<<g.r.Intn(3))
		g.op("bnez r17, y%d", i)
	} else {
		bit := 9
		if g.p.BranchPeriod > 0 {
			bit = bits.Len(uint(g.p.BranchPeriod)) - 1
		}
		g.op("srli r17, r21, %d", bit)
		g.op("andi r17, r17, 1")
		g.op("bnez r17, y%d", i)
	}
	for k, n := 0, 1+g.r.Intn(3); k < n; k++ {
		g.op("xor  r17, r17, r%d", 8+g.r.Intn(g.p.ILP))
	}
	g.label(fmt.Sprintf("y%d", i))
}
