// Package synth generates parameterized synthetic workloads for the
// flywheel ISA. The hand-written benchmark proxies in package workload pin
// each namesake's characteristics by construction; synth inverts that: a
// Profile names the characteristics directly — instruction-level
// parallelism, branch predictability, memory footprint and access pattern,
// floating-point mix, destination-register reuse and static code footprint
// — and a deterministic, seeded generator emits an assembly kernel that
// exhibits them. That turns the reproduction from "how does the Flywheel do
// on these ten programs?" into "for *which* programs does a multiple-speed
// pipeline win?", the question the design-space explorer (package explore)
// sweeps.
//
// Generation is pure: the same Profile always yields byte-identical
// assembly, so a profile's canonical Name doubles as its cache identity in
// the lab's memoized run cache. Measure replays a generated kernel on the
// functional emulator and reports the characteristics it actually
// exhibits; the package tests hold Generate to those targets.
package synth

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"flywheel/internal/splitmix"
)

// Profile parameterizes one synthetic workload. The zero value of each
// integer knob selects its default; the float knobs are fractions in [0, 1]
// whose zero value is meaningful (e.g. BranchEntropy 0 = fully predictable
// branches). See DESIGN.md for how each knob maps to the workload
// characteristics that drive the paper's experiments.
type Profile struct {
	// ILP is the number of independent dependency chains threaded through
	// the kernel's compute blocks (1..6; default 4). The total arithmetic
	// work per block is fixed, so low ILP means few long chains (serial)
	// and high ILP means many short ones (parallel).
	ILP int
	// BranchEntropy in [0, 1] is the fraction of the kernel's conditional
	// branches whose direction depends on pseudo-random data (unlearnable),
	// rather than on slowly-varying loop state (learnable).
	BranchEntropy float64
	// MemFootprintKB is the data working set in KiB (1..1024; default 32),
	// rounded up to a power of two so addresses can be masked.
	MemFootprintKB int
	// StrideFrac in [0, 1] is the fraction of memory accesses that walk the
	// working set sequentially; the rest address it pseudo-randomly.
	StrideFrac float64
	// FPMix in [0, 1] is the fraction of dependency-chain arithmetic done
	// in floating point rather than integer.
	FPMix float64
	// RegReuse in [0, 1] concentrates destination-register writes: it is
	// the probability that a chain operation also funnels a result into the
	// single shared hot register, stressing that architected register's
	// rename pool (the gzip/vpr/parser effect of the paper's Figure 11).
	RegReuse float64
	// CodeFootprintKB is the static code footprint in KiB (1..256;
	// default 4): the measured loop is unrolled into structurally varied
	// bodies until the target size is reached, so stored traces compete for
	// Execution Cache capacity like the namesake benchmarks' large text
	// sections do.
	CodeFootprintKB int
	// BranchPeriod, when nonzero, replaces the predictable branches' default
	// direction pattern (flip every 512 bodies) with a flip every
	// BranchPeriod executed bodies (power of two, 2..4096). Short periods
	// look random to a short-history predictor — the run length exceeds what
	// a G-share history register can count — while a long-geometric-history
	// predictor (TAGE) locks onto the position inside the run.
	BranchPeriod int
	// ChaseFrac in [0, 1] is the fraction of memory fragments that
	// pointer-chase: the next load address is derived from the previously
	// loaded value, so the loads form a serial dependence chain with no
	// learnable stride.
	ChaseFrac float64
	// StrideBytes, when nonzero, overrides the sequential cursor's step
	// (power of two, 8..1024; default 8). Steps past the line size turn the
	// sequential walk into a long-stride pattern: every access opens a new
	// line, which a delta prefetcher can run ahead of.
	StrideBytes int
	// Seed selects the generator's pseudo-random structure decisions and
	// the kernel's runtime data. Same seed, same program.
	Seed uint64
	// Passes is the number of measured outer passes (1..64; default 4); it
	// scales the dynamic instruction count of a run to completion.
	Passes int
}

// Profile knob bounds and defaults.
const (
	DefaultILP        = 4
	MaxILP            = 6
	DefaultMemKB      = 32
	MaxMemKB          = 1024
	DefaultCodeKB     = 4
	MaxCodeKB         = 256
	DefaultPasses     = 4
	MaxPasses         = 64
	MaxBranchPeriod   = 4096 // BranchPeriod upper bound (0 = legacy 512)
	MaxStrideBytes    = 1024 // StrideBytes upper bound (0 = default 8)
	innerIterFloor    = 1024 // minimum bodies executed per pass
	chainOpsPerBlock  = 12   // arithmetic ops per compute block, split across chains
	ringIterPerBodies = 4    // passes over the whole body ring per inner loop
)

// Defaulted returns p with every zero integer knob replaced by its default
// and the memory footprint rounded up to a power of two. It does not
// validate; see Validate.
func (p Profile) Defaulted() Profile {
	if p.ILP == 0 {
		p.ILP = DefaultILP
	}
	if p.MemFootprintKB == 0 {
		p.MemFootprintKB = DefaultMemKB
	}
	if p.MemFootprintKB > 0 {
		p.MemFootprintKB = ceilPow2(p.MemFootprintKB)
	}
	if p.CodeFootprintKB == 0 {
		p.CodeFootprintKB = DefaultCodeKB
	}
	if p.Passes == 0 {
		p.Passes = DefaultPasses
	}
	if p.BranchPeriod > 0 {
		p.BranchPeriod = ceilPow2(p.BranchPeriod)
	}
	if p.StrideBytes > 0 {
		p.StrideBytes = ceilPow2(p.StrideBytes)
	}
	return p
}

func ceilPow2(v int) int {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(v-1))
}

// Validate checks the defaulted profile's knobs against their ranges.
func (p Profile) Validate() error {
	d := p.Defaulted()
	check := func(name string, v, lo, hi int) error {
		if v < lo || v > hi {
			return fmt.Errorf("synth: %s %d outside [%d, %d]", name, v, lo, hi)
		}
		return nil
	}
	frac := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("synth: %s %g outside [0, 1]", name, v)
		}
		return nil
	}
	if err := check("ILP", d.ILP, 1, MaxILP); err != nil {
		return err
	}
	if err := check("MemFootprintKB", d.MemFootprintKB, 1, MaxMemKB); err != nil {
		return err
	}
	if err := check("CodeFootprintKB", d.CodeFootprintKB, 1, MaxCodeKB); err != nil {
		return err
	}
	if err := check("Passes", d.Passes, 1, MaxPasses); err != nil {
		return err
	}
	if err := frac("BranchEntropy", d.BranchEntropy); err != nil {
		return err
	}
	if err := frac("StrideFrac", d.StrideFrac); err != nil {
		return err
	}
	if err := frac("FPMix", d.FPMix); err != nil {
		return err
	}
	if err := frac("ChaseFrac", d.ChaseFrac); err != nil {
		return err
	}
	if d.BranchPeriod != 0 {
		if err := check("BranchPeriod", d.BranchPeriod, 2, MaxBranchPeriod); err != nil {
			return err
		}
	}
	if d.StrideBytes != 0 {
		if err := check("StrideBytes", d.StrideBytes, 8, MaxStrideBytes); err != nil {
			return err
		}
	}
	return frac("RegReuse", d.RegReuse)
}

// Name is the canonical identity of the defaulted profile. Two profiles
// that default to the same knobs share a name (and therefore one lab cache
// entry); profiles that differ in any knob never collide — the name spells
// out every knob exactly.
func (p Profile) Name() string {
	d := p.Defaulted()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	name := fmt.Sprintf("synth/i%d-e%s-m%d-s%s-f%s-r%s-c%d-p%d-x%d",
		d.ILP, g(d.BranchEntropy), d.MemFootprintKB, g(d.StrideFrac),
		g(d.FPMix), g(d.RegReuse), d.CodeFootprintKB, d.Passes, d.Seed)
	// The frontend-stress knobs appear only when set, so every profile that
	// predates them keeps its name (and its cache identity).
	if d.BranchPeriod != 0 {
		name += fmt.Sprintf("-bp%d", d.BranchPeriod)
	}
	if d.ChaseFrac != 0 {
		name += "-h" + g(d.ChaseFrac)
	}
	if d.StrideBytes != 0 {
		name += fmt.Sprintf("-sb%d", d.StrideBytes)
	}
	return name
}

// String describes the profile for human-facing tables.
func (p Profile) String() string { return strings.TrimPrefix(p.Name(), "synth/") }

// newRNG returns the splitmix64 stream behind every structural decision
// the generator makes. It must not be replaced by math/rand — the emitted
// program text is part of the cache identity.
func newRNG(seed uint64) *splitmix.Rand {
	// Mix the seed so 0 and 1 produce unrelated streams.
	r := splitmix.Rand(seed + splitmix.Gamma)
	r.Next()
	return &r
}
