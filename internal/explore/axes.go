package explore

import (
	"fmt"
	"strconv"
	"strings"

	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/mem"
	"flywheel/internal/sim"
	"flywheel/internal/workload/synth"
)

// Axes carries the textual value of every grid dimension, as the explore
// CLI flags and labd's /v1/frontier parameters spell it (both bind it
// through Query). Profile knob lists cross-product into the profile axis;
// Space validates and assembles the exploration space.
type Axes struct {
	ILP, Entropy, FPMix, Mem, Stride, Reuse, Code string
	// Period, Chase and StrideBytes are the frontend-stress profile knobs
	// (synth.Profile.BranchPeriod / ChaseFrac / StrideBytes); "0" leaves
	// the legacy behavior.
	Period, Chase, StrideBytes string
	Seed                       uint64
	Passes                     int
	Arch, FE, BE, Node         string
	// Predictor / Prefetcher are comma-lists of frontend component names
	// ("gshare,tage" / "none,delta").
	Predictor, Prefetcher string
	Instructions          uint64
	// MaxPoints bounds the enumerated grid so a typo in a list (or an
	// abusive query) fails fast instead of queueing hours of simulation;
	// zero applies DefaultMaxPoints.
	MaxPoints int
}

// DefaultMaxPoints is the grid-size guard applied when Axes.MaxPoints is
// zero.
const DefaultMaxPoints = 4096

// DefaultAxes returns the axis defaults shared by the CLI and the service.
func DefaultAxes() Axes {
	return Axes{
		ILP: "1,4,6", Entropy: "0,1", FPMix: "0", Mem: "32",
		Stride: "0.5", Reuse: "0", Code: "4",
		Period: "0", Chase: "0", StrideBytes: "0", Seed: 1,
		Arch: "flywheel", FE: "0,50,100", BE: "50", Node: "0.13",
		Predictor: branch.DirGShare, Prefetcher: mem.PFNone,
		Instructions: 300_000,
	}
}

// Space cross-products the profile knob lists into the profile axis and
// assembles the exploration space.
func (a Axes) Space() (Space, error) {
	var sp Space
	ilps, err := intList("ilp", a.ILP)
	if err != nil {
		return sp, err
	}
	entropies, err := floatList("entropy", a.Entropy)
	if err != nil {
		return sp, err
	}
	fps, err := floatList("fp", a.FPMix)
	if err != nil {
		return sp, err
	}
	mems, err := intList("mem", a.Mem)
	if err != nil {
		return sp, err
	}
	strides, err := floatList("stride", a.Stride)
	if err != nil {
		return sp, err
	}
	reuses, err := floatList("rr", a.Reuse)
	if err != nil {
		return sp, err
	}
	codes, err := intList("code", a.Code)
	if err != nil {
		return sp, err
	}
	periods, err := intListDefault("period", a.Period)
	if err != nil {
		return sp, err
	}
	chases, err := floatListDefault("chase", a.Chase)
	if err != nil {
		return sp, err
	}
	sbytes, err := intListDefault("stridebytes", a.StrideBytes)
	if err != nil {
		return sp, err
	}
	for _, i := range ilps {
		for _, e := range entropies {
			for _, f := range fps {
				for _, m := range mems {
					for _, s := range strides {
						for _, r := range reuses {
							for _, c := range codes {
								for _, bp := range periods {
									for _, ch := range chases {
										for _, sb := range sbytes {
											sp.Profiles = append(sp.Profiles, synth.Profile{
												ILP: i, BranchEntropy: e, FPMix: f,
												MemFootprintKB: m, StrideFrac: s, RegReuse: r,
												CodeFootprintKB: c, Seed: a.Seed, Passes: a.Passes,
												BranchPeriod: bp, ChaseFrac: ch, StrideBytes: sb,
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}

	for _, name := range splitList(a.Predictor) {
		if !branch.KnownDirection(name) {
			return sp, fmt.Errorf("unknown predictor %q (want %s)", name, strings.Join(branch.Directions(), ", "))
		}
		sp.Predictors = append(sp.Predictors, name)
	}
	for _, name := range splitList(a.Prefetcher) {
		if !mem.KnownPrefetcher(name) {
			return sp, fmt.Errorf("unknown prefetcher %q (want %s)", name, strings.Join(mem.Prefetchers(), ", "))
		}
		sp.Prefetchers = append(sp.Prefetchers, name)
	}

	archNames := splitList(a.Arch)
	if len(archNames) == 0 {
		return sp, fmt.Errorf("-arch is empty")
	}
	for _, name := range archNames {
		switch name {
		case "baseline":
			sp.Archs = append(sp.Archs, sim.ArchBaseline)
		case "flywheel":
			sp.Archs = append(sp.Archs, sim.ArchFlywheel)
		case "regalloc":
			sp.Archs = append(sp.Archs, sim.ArchRegAlloc)
		default:
			return sp, fmt.Errorf("unknown architecture %q (want baseline, flywheel or regalloc)", name)
		}
	}
	if sp.FEBoosts, err = intList("fe", a.FE); err != nil {
		return sp, err
	}
	if sp.BEBoosts, err = intList("be", a.BE); err != nil {
		return sp, err
	}
	nodeNames := splitList(a.Node)
	if len(nodeNames) == 0 {
		return sp, fmt.Errorf("-node is empty")
	}
	for _, s := range nodeNames {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return sp, fmt.Errorf("bad node %q", s)
		}
		switch nd := cacti.Node(v); nd {
		case cacti.Node180, cacti.Node130, cacti.Node90, cacti.Node60:
			sp.Nodes = append(sp.Nodes, nd)
		default:
			return sp, fmt.Errorf("unsupported node %v (want 0.18, 0.13, 0.09 or 0.06)", v)
		}
	}
	sp.Instructions = a.Instructions

	maxPoints := a.MaxPoints
	if maxPoints == 0 {
		maxPoints = DefaultMaxPoints
	}
	preds, pfs := len(sp.Predictors), len(sp.Prefetchers)
	if preds == 0 {
		preds = 1 // normalize() will default the axis to one point
	}
	if pfs == 0 {
		pfs = 1
	}
	if size := len(sp.Profiles) * len(sp.Archs) * preds * pfs * len(sp.FEBoosts) * len(sp.BEBoosts) * len(sp.Nodes); size > maxPoints {
		return sp, fmt.Errorf("grid has %d points, max %d — trim an axis", size, maxPoints)
	}
	return sp, nil
}

// intListDefault parses a comma-list of ints, treating an empty string as
// the single value 0 — the frontend-stress knobs are additions whose zero
// value is "legacy behavior", so an Axes struct built without them keeps
// its old meaning.
func intListDefault(name, s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{0}, nil
	}
	return intList(name, s)
}

// floatListDefault is intListDefault for float axes.
func floatListDefault(name, s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return []float64{0}, nil
	}
	return floatList(name, s)
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func intList(name, s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad -%s value %q", name, f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s is empty", name)
	}
	return out, nil
}

func floatList(name, s string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -%s value %q", name, f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s is empty", name)
	}
	return out, nil
}
