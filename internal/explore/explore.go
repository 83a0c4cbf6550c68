// Package explore sweeps the multiple-speed-pipeline design space. The
// paper evaluates fixed benchmarks at a handful of clock ratios; the
// explorer generalizes that into a grid enumeration — synthetic workload
// profiles × architectures × front-end/back-end boosts × technology nodes
// — submitted to the lab as one batched job list, then reduced to the
// speedup-vs-energy Pareto frontier: the configurations for which no other
// configuration is both faster and more energy-efficient.
//
// Everything is deterministic: the grid enumerates in a fixed nested
// order, the lab returns results in job order at any worker count, and the
// frontier is a pure function of the results — so a report renders
// byte-identically whether it ran on one worker or sixty-four, a property
// pinned by tests.
package explore

import (
	"encoding/csv"
	"fmt"
	"math"
	"sort"
	"strings"

	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/lab"
	"flywheel/internal/mem"
	"flywheel/internal/sim"
	"flywheel/internal/stats"
	"flywheel/internal/workload/synth"
)

// Space is the design-space grid to enumerate: the cross-product of every
// non-empty axis. Nil axes default to a single point (see normalize).
type Space struct {
	// Profiles are the synthetic workloads to evaluate. At least one is
	// required.
	Profiles []synth.Profile
	// Archs lists the machines; nil means the full Flywheel only. The
	// baseline is always simulated per (profile, node) for normalization,
	// whether or not it is listed.
	Archs []sim.Arch
	// Predictors / Prefetchers are the frontend axes: direction-predictor
	// and L1↔L2-prefetcher names crossed into the grid. Nil means the
	// defaults ({"gshare"} and {"none"}), which reproduce the pre-frontend
	// grids exactly. The per-(profile, node) normalization baseline always
	// runs the default frontend, so a frontend win shows up as speedup.
	Predictors  []string
	Prefetchers []string
	// FEBoosts / BEBoosts are the clock-ratio axes in percent; nil means
	// {0, 50, 100} and {50} respectively. The baseline architecture
	// ignores boosts, so it contributes one point per (profile, node).
	FEBoosts []int
	BEBoosts []int
	// Nodes lists the technology points; nil means 0.13 µm.
	Nodes []cacti.Node
	// Instructions bounds the measured dynamic instructions per run; zero
	// means 300k.
	Instructions uint64
}

func (s Space) normalize() Space {
	if s.Archs == nil {
		s.Archs = []sim.Arch{sim.ArchFlywheel}
	}
	if s.Predictors == nil {
		s.Predictors = []string{branch.DirGShare}
	}
	if s.Prefetchers == nil {
		s.Prefetchers = []string{mem.PFNone}
	}
	if s.FEBoosts == nil {
		s.FEBoosts = []int{0, 50, 100}
	}
	if s.BEBoosts == nil {
		s.BEBoosts = []int{50}
	}
	if s.Nodes == nil {
		s.Nodes = []cacti.Node{cacti.Node130}
	}
	if s.Instructions == 0 {
		s.Instructions = 300_000
	}
	return s
}

// Point is one evaluated grid configuration with its paper metrics:
// speedup and energy relative to the same profile's baseline machine at
// the same node.
type Point struct {
	Profile synth.Profile
	Arch    sim.Arch
	Node    cacti.Node
	FEBoost int
	BEBoost int
	// Predictor / Prefetcher name the cell's frontend (canonical names,
	// never empty — "gshare" / "none" are the defaults).
	Predictor  string
	Prefetcher string

	Result   sim.Result
	Baseline sim.Result

	// Speedup is baseline time / this time; EnergyRatio is this energy /
	// baseline energy. The ideal corner is high speedup at low ratio. A
	// degenerate baseline (zero energy) yields NaN, and NaN points are
	// excluded from frontier dominance entirely.
	Speedup     float64
	EnergyRatio float64
	// OnFrontier marks Pareto-optimal points: no other point has both
	// higher-or-equal speedup and lower-or-equal energy with at least one
	// strict.
	OnFrontier bool
	// Predicted marks points whose Result came from the analytic tier's
	// fitted model rather than a cycle-accurate simulation.
	Predicted bool
	// Sampled marks points whose Result is a sampled-execution estimate —
	// periodic detailed windows with confidence intervals (Result.Sampled)
	// — rather than an exact cycle-accurate run.
	Sampled bool

	// gridIndex is the point's position in the plan's grid enumeration, so
	// a confirmed subset can be joined back to its predictions.
	gridIndex int
}

// finite reports whether the point's metrics participate in Pareto
// dominance: NaN in either metric excludes the point (it can neither be on
// the frontier nor dominate anything).
func (p Point) finite() bool {
	return !math.IsNaN(p.Speedup) && !math.IsNaN(p.EnergyRatio)
}

// Report is the outcome of one exploration.
type Report struct {
	Space  Space   // normalized
	Points []Point // in grid-enumeration order
}

// Options configures the batch execution.
type Options struct {
	// Workers is the worker-pool size; zero or negative uses GOMAXPROCS.
	Workers int
	// Cache memoizes runs across calls. Nil uses a process-wide cache
	// shared by every exploration (the experiment harness keeps its own).
	Cache *lab.Cache
	// Progress, when non-nil, is called after each completed simulation.
	Progress func(done, total int, j lab.Job)
}

// sharedCache memoizes runs across every exploration in the process.
var sharedCache = lab.NewCache()

// gridJobs enumerates the grid in deterministic nested order — profile,
// node, arch, predictor, prefetcher, FE boost, BE boost — preceded by one
// baseline job per (profile, node). The baseline arch collapses its boost
// axes. The normalization baseline always runs the default frontend, so
// every cell of a frontend sweep divides by the same reference machine.
func gridJobs(s Space) (baselines, grid []lab.Job, points []Point) {
	for _, p := range s.Profiles {
		name := p.Name()
		for _, node := range s.Nodes {
			baselines = append(baselines, lab.Job{
				Workload: name, Arch: sim.ArchBaseline, Node: node,
				MaxInstructions: s.Instructions,
			})
			for _, arch := range s.Archs {
				fes, bes := s.FEBoosts, s.BEBoosts
				if arch == sim.ArchBaseline {
					fes, bes = []int{0}, []int{0}
				}
				for _, pred := range s.Predictors {
					for _, pf := range s.Prefetchers {
						for _, fe := range fes {
							for _, be := range bes {
								grid = append(grid, lab.Job{
									Workload: name, Arch: arch, Node: node,
									FEBoostPct: fe, BEBoostPct: be,
									MaxInstructions: s.Instructions,
									Predictor:       pred, Prefetcher: pf,
								})
								points = append(points, Point{
									Profile: p, Arch: arch, Node: node,
									FEBoost: fe, BEBoost: be,
									Predictor: pred, Prefetcher: pf,
									gridIndex: len(points),
								})
							}
						}
					}
				}
			}
		}
	}
	return baselines, grid, points
}

// Explore generates and registers every profile's workload, runs the whole
// grid (plus per-profile baselines) as one batched lab submission, and
// reduces the results to a Pareto report. It is the exact (cycle-accurate)
// path; ExploreTiered screens the same grid analytically instead.
func Explore(s Space, opt Options) (*Report, error) {
	return exploreAll(s, opt, sim.Sampling{})
}

// ExploreSampled runs the whole grid with sampled execution: every cell
// (baselines included, so speedup and energy ratios compare like with
// like) alternates fast-forwarded warming with detailed windows under the
// given schedule, ~5x cheaper per cell than Explore. Points carry
// confidence intervals in Result.Sampled and are marked Sampled. Sampled
// jobs memoize under their own cache keys; an exact result is never served
// for a sampled request or vice versa.
func ExploreSampled(s Space, samp sim.Sampling, opt Options) (*Report, error) {
	samp = samp.Normalize()
	if !samp.Enabled() {
		return nil, fmt.Errorf("explore: sampled tier has no sampling period")
	}
	return exploreAll(s, opt, samp)
}

// exploreAll confirms every cell of the space's plan under samp (zero:
// exact) and marks the frontier.
func exploreAll(s Space, opt Options, samp sim.Sampling) (*Report, error) {
	plan, err := NewPlan(s)
	if err != nil {
		return nil, err
	}
	all := make([]bool, plan.Cells())
	for i := range all {
		all[i] = true
	}
	points, err := confirmCells(plan, all, opt, samp)
	if err != nil {
		return nil, err
	}
	markFrontier(points)
	return &Report{Space: plan.Space, Points: points}, nil
}

func baseKey(name string, node cacti.Node) string {
	return fmt.Sprintf("%s@%g", name, float64(node))
}

// markFrontier flags the Pareto-optimal points: maximize speedup, minimize
// energy ratio. Duplicate metric pairs are all kept — neither dominates.
// Points with NaN metrics (degenerate baselines) are excluded: never on the
// frontier, never dominating. One sort plus one pass — O(n log n) — so
// 100k-cell tiered grids reduce in milliseconds (the old all-pairs scan was
// quadratic).
func markFrontier(points []Point) {
	idx := make([]int, 0, len(points))
	for i := range points {
		points[i].OnFrontier = false
		if points[i].finite() {
			idx = append(idx, i)
		}
	}
	// Descending speedup, ascending energy within equal speedup.
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := &points[idx[a]], &points[idx[b]]
		if pa.Speedup != pb.Speedup {
			return pa.Speedup > pb.Speedup
		}
		return pa.EnergyRatio < pb.EnergyRatio
	})
	// In sorted order every earlier point has speedup >= the current one,
	// so a point is dominated iff the running minimum energy of strictly
	// faster points is <= its own, or a strictly lower energy exists within
	// its own equal-speedup group (the group minimum is its first member).
	minFaster := math.Inf(1)
	for g := 0; g < len(idx); {
		h := g
		for h < len(idx) && points[idx[h]].Speedup == points[idx[g]].Speedup {
			h++
		}
		groupMin := points[idx[g]].EnergyRatio
		for k := g; k < h; k++ {
			p := &points[idx[k]]
			p.OnFrontier = minFaster > p.EnergyRatio && groupMin >= p.EnergyRatio
		}
		if groupMin < minFaster {
			minFaster = groupMin
		}
		g = h
	}
}

// Frontier returns the Pareto-optimal points ordered by descending
// speedup, ties broken by grid order.
func (r *Report) Frontier() []Point {
	var out []Point
	for _, p := range r.Points {
		if p.OnFrontier {
			out = append(out, p)
		}
	}
	// Stable sort keeps the tie-break on grid order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Speedup > out[j].Speedup })
	return out
}

func pointRow(p Point) []string {
	mark := ""
	if p.OnFrontier {
		mark = "*"
	}
	return []string{
		p.Profile.String(), p.Arch.String(), p.Node.String(),
		p.Predictor, p.Prefetcher,
		fmt.Sprintf("%d", p.FEBoost), fmt.Sprintf("%d", p.BEBoost),
		stats.F(p.Speedup, 3), stats.F(p.EnergyRatio, 3),
		stats.Pct(p.Result.ECResidency), stats.F(p.Result.IPC, 2), mark,
	}
}

var pointHeader = []string{"profile", "arch", "node", "pred", "pf", "FE%", "BE%", "speedup", "energy", "EC res", "IPC", "frontier"}

// Table renders every grid point, frontier members starred.
func (r *Report) Table() *stats.Table {
	tbl := stats.NewTable("Design space — speedup and energy vs per-profile baseline", pointHeader...)
	for _, p := range r.Points {
		tbl.Add(pointRow(p)...)
	}
	return tbl
}

// FrontierTable renders only the Pareto frontier, fastest first.
func (r *Report) FrontierTable() *stats.Table {
	tbl := stats.NewTable("Pareto frontier — speedup vs energy", pointHeader...)
	for _, p := range r.Frontier() {
		tbl.Add(pointRow(p)...)
	}
	return tbl
}

var csvHeader = []string{"profile", "arch", "node", "predictor", "prefetcher", "fe_pct", "be_pct",
	"time_ps", "ipc", "speedup", "energy_ratio", "ec_residency",
	"branch_acc", "l2_hit", "pf_acc", "pf_cov", "frontier"}

func csvRecord(p Point) []string {
	return []string{
		p.Profile.String(), p.Arch.String(), p.Node.String(),
		p.Predictor, p.Prefetcher,
		fmt.Sprintf("%d", p.FEBoost), fmt.Sprintf("%d", p.BEBoost),
		fmt.Sprintf("%d", p.Result.TimePS), stats.F(p.Result.IPC, 4),
		stats.F(p.Speedup, 4), stats.F(p.EnergyRatio, 4),
		stats.F(p.Result.ECResidency, 4),
		stats.F(p.Result.BranchAccuracy, 4), stats.F(p.Result.DemandL2HitRate, 4),
		stats.F(p.Result.PrefetchAccuracy, 4), stats.F(p.Result.PrefetchCoverage, 4),
		fmt.Sprintf("%t", p.OnFrontier),
	}
}

// writeCSV renders records through encoding/csv, so fields containing
// delimiters (commas, quotes, newlines) are quoted instead of silently
// misaligning the row — the old fmt.Fprintf emitter trusted every field.
func writeCSV(b *strings.Builder, records [][]string) {
	w := csv.NewWriter(b)
	for _, rec := range records {
		// Writer errors only surface on the underlying writer, and
		// strings.Builder cannot fail.
		_ = w.Write(rec)
	}
	w.Flush()
}

// CSV renders every grid point as RFC-4180 comma-separated records with a
// header, byte-identical at any worker count.
func (r *Report) CSV() string {
	records := make([][]string, 0, len(r.Points)+1)
	records = append(records, csvHeader)
	for _, p := range r.Points {
		records = append(records, csvRecord(p))
	}
	var b strings.Builder
	writeCSV(&b, records)
	return b.String()
}
