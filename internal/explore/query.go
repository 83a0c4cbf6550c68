package explore

import (
	"flag"
	"fmt"

	"flywheel/internal/analytic"
	"flywheel/internal/sample"
	"flywheel/internal/sim"
)

// screenMaxPoints is the grid-size guard of the analytic and auto tiers
// when Axes.MaxPoints is zero. A screened grid costs nanoseconds per cell,
// so it may be far wider than DefaultMaxPoints.
const screenMaxPoints = 262_144

// Query is one exploration request as both front-ends take it: the explore
// CLI's flags and labd's /v1/frontier parameters are the fields of this
// struct, registered by Bind. Space validates it and Run executes it.
type Query struct {
	Axes
	// Tier is exact, sampled, analytic or auto. Auto screens analytically
	// only when the grid has at least four times the calibration cells.
	Tier string
	// Sampling is the sampled schedule: the whole grid's under tier
	// sampled (a zero period means sample.DefaultPeriod), the middle
	// tier's under analytic or auto (a zero period means no middle tier).
	Sampling sim.Sampling
	// Margin, Audit and AuditSeed configure the analytic screen (see
	// TieredOptions).
	Margin    float64
	Audit     float64
	AuditSeed uint64
}

// DefaultQuery returns the defaults both front-ends start from.
func DefaultQuery() Query {
	return Query{Axes: DefaultAxes(), Tier: "exact", Audit: DefaultAudit, AuditSeed: 1}
}

// Bind registers every query field on fs under its CLI flag name, with the
// field's current value as the default. Axes.MaxPoints is not bound: a
// front-end that lets its caller raise the guard registers it itself.
func (q *Query) Bind(fs *flag.FlagSet) {
	a := &q.Axes
	fs.StringVar(&a.ILP, "ilp", a.ILP, "ILP values (independent chains), comma-separated")
	fs.StringVar(&a.Entropy, "entropy", a.Entropy, "branch entropies in [0,1], comma-separated")
	fs.StringVar(&a.FPMix, "fp", a.FPMix, "floating-point mixes in [0,1], comma-separated")
	fs.StringVar(&a.Mem, "mem", a.Mem, "data footprints in KiB, comma-separated")
	fs.StringVar(&a.Stride, "stride", a.Stride, "stride fractions in [0,1], comma-separated")
	fs.StringVar(&a.Reuse, "rr", a.Reuse, "register-reuse fractions in [0,1], comma-separated")
	fs.StringVar(&a.Code, "code", a.Code, "code footprints in KiB, comma-separated")
	fs.StringVar(&a.Period, "period", a.Period, "predictable-branch periods (0 = default 512), comma-separated")
	fs.StringVar(&a.Chase, "chase", a.Chase, "pointer-chase fractions in [0,1], comma-separated")
	fs.StringVar(&a.StrideBytes, "stridebytes", a.StrideBytes, "stride step in bytes (0 = default 8), comma-separated")
	fs.Uint64Var(&a.Seed, "seed", a.Seed, "generator seed shared by all profiles")
	fs.IntVar(&a.Passes, "passes", a.Passes, "measured passes per kernel (0 = default)")
	fs.StringVar(&a.Arch, "arch", a.Arch, "architectures: baseline, flywheel, regalloc (comma-separated)")
	fs.StringVar(&a.Predictor, "predictor", a.Predictor, "branch direction predictors: gshare, tage, always-taken (comma-separated)")
	fs.StringVar(&a.Prefetcher, "prefetcher", a.Prefetcher, "L2 prefetchers: none, delta (comma-separated)")
	fs.StringVar(&a.FE, "fe", a.FE, "front-end boost percentages, comma-separated")
	fs.StringVar(&a.BE, "be", a.BE, "back-end boost percentages, comma-separated")
	fs.StringVar(&a.Node, "node", a.Node, "technology nodes in um: 0.18, 0.13, 0.09, 0.06 (comma-separated)")
	fs.Uint64Var(&a.Instructions, "n", a.Instructions, "measured dynamic instructions per run")

	fs.StringVar(&q.Tier, "tier", q.Tier, "evaluation tier: exact, sampled, analytic, or auto")
	fs.Float64Var(&q.Margin, "margin", q.Margin, "analytic frontier slack fraction below 1 (0 = derive from model error, negative = frontier only)")
	fs.Float64Var(&q.Audit, "audit", q.Audit, "fraction below 1 of screened-out cells confirmed anyway (negative disables)")
	fs.Uint64Var(&q.AuditSeed, "auditseed", q.AuditSeed, "audit-sample seed")

	s := &q.Sampling
	fs.Uint64Var(&s.Period, "sample-period", s.Period, "sampled-execution period in instructions (0 = exact cells; with -tier sampled, 0 = default period)")
	fs.Uint64Var(&s.WindowInsts, "window", s.WindowInsts, "measured instructions per detailed window (0 = default)")
	fs.Uint64Var(&s.WarmupInsts, "sample-warmup", s.WarmupInsts, "detailed warm-up instructions before each window (0 = default)")
	fs.Uint64Var(&s.Seed, "sample-seed", s.Seed, "window-phase seed (0 = 1)")
}

// sampling is the normalized schedule the query runs, with the sampled
// tier's default period applied.
func (q Query) sampling() sim.Sampling {
	s := q.Sampling
	if q.Tier == "sampled" && s.Period == 0 {
		s.Period = sample.DefaultPeriod
	}
	return s.Normalize()
}

// Space validates the query and assembles its grid. It rejects an unknown
// tier, an infeasible sampling schedule, and a margin or audit that would
// confirm every cell; the grid-size guard is screenMaxPoints for the
// analytic and auto tiers unless MaxPoints is set.
func (q Query) Space() (Space, error) {
	switch q.Tier {
	case "exact", "sampled", "analytic", "auto":
	default:
		return Space{}, fmt.Errorf("unknown tier %q (want exact, sampled, analytic or auto)", q.Tier)
	}
	if err := q.sampling().Validate(); err != nil {
		return Space{}, err
	}
	if err := (TieredOptions{Margin: q.Margin, Audit: q.Audit}).validate(); err != nil {
		return Space{}, err
	}
	a := q.Axes
	if a.MaxPoints == 0 && (q.Tier == "analytic" || q.Tier == "auto") {
		a.MaxPoints = screenMaxPoints
	}
	return a.Space()
}

// Outcome is what one query produced. Report is set for the exact and
// sampled tiers, Tiered for the analytic tier.
type Outcome struct {
	// Tier is the tier that ran: exact, sampled or analytic. An auto query
	// resolves to exact or analytic.
	Tier   string
	Report *Report
	Tiered *TieredReport
	// GridCells and CalibrationCells are the sizes an auto query compared
	// to resolve its tier; both are zero for the other tiers.
	GridCells, CalibrationCells int
}

// Run explores the space Space returned, resolving an auto tier first. The
// analytic tier calibrates a model on the space's own grid and screens
// with it. On error the outcome still reports how an auto tier resolved.
func (q Query) Run(s Space, opt Options) (*Outcome, error) {
	out := &Outcome{Tier: q.Tier}
	if q.Tier == "auto" {
		plan, err := NewPlan(s)
		if err != nil {
			return nil, err
		}
		// Screen analytically only when the grid comfortably out-sizes the
		// calibration cost; small grids are cheaper to just simulate.
		out.GridCells = plan.Cells()
		out.CalibrationCells = CalibrationConfig(s, opt).Cells()
		out.Tier = "exact"
		if out.GridCells >= 4*out.CalibrationCells {
			out.Tier = "analytic"
		}
	}
	var err error
	switch out.Tier {
	case "analytic":
		var model *analytic.Model
		if model, err = analytic.Calibrate(CalibrationConfig(s, opt)); err != nil {
			return out, err
		}
		out.Tiered, err = ExploreTiered(s, model, TieredOptions{
			Options: opt, Margin: q.Margin, Audit: q.Audit, AuditSeed: q.AuditSeed,
			Sampling: q.sampling(),
		})
	case "sampled":
		out.Report, err = ExploreSampled(s, q.sampling(), opt)
	default:
		out.Report, err = Explore(s, opt)
	}
	return out, err
}
