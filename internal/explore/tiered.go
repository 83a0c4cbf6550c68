package explore

// Two-tier exploration: screen the whole grid with the analytic model,
// spend cycle-accurate budget only near the predicted Pareto frontier plus
// a random audit sample, and report both frontiers with a measured
// prediction-error summary. The margin is the contract between the tiers:
// as long as the model's relative error stays inside it, every true
// frontier point is predicted close enough to the predicted frontier to be
// selected for confirmation.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"flywheel/internal/analytic"
	"flywheel/internal/branch"
	"flywheel/internal/mem"
	"flywheel/internal/sim"
	"flywheel/internal/splitmix"
	"flywheel/internal/stats"
)

// Tiered-exploration defaults.
const (
	// MaxMargin caps the automatic frontier slack: even a poorly fitted
	// model confirms at most the 10%-band around its predicted frontier.
	MaxMargin = 0.10
	// MinMargin floors the automatic slack: simulator nondeterminism-free
	// as this repo is, sub-half-percent margins select almost exactly the
	// predicted frontier and leave no room for interpolation error.
	MinMargin = 0.005
	// DefaultAudit is the fraction of screened-out cells confirmed anyway,
	// so the error summary also measures the model far from the frontier.
	DefaultAudit = 0.02
)

// AutoMargin derives a frontier slack from the model's own in-sample error:
// four times the worst per-instruction residual (doubled once because the
// Pareto metrics are ratios of two predictions, and doubled again as a
// guardband), clamped to [MinMargin, MaxMargin]. Used when TieredOptions
// leaves Margin zero.
func AutoMargin(m *analytic.Model) float64 {
	margin := 4 * math.Max(m.TrainingErr.TimeMaxAPE, m.TrainingErr.EnergyMaxAPE)
	return math.Min(MaxMargin, math.Max(MinMargin, margin))
}

// TieredOptions configures ExploreTiered.
type TieredOptions struct {
	Options
	// Margin is the frontier slack fraction. A cell is confirmed unless
	// some predicted point dominates it even after the cell's speedup is
	// credited by (1+Margin) and its energy discounted by (1-Margin). Zero
	// derives the margin from the model's in-sample error (see AutoMargin);
	// negative confirms exactly the predicted frontier. It must be finite
	// and below 1: a larger slack confirms every cell.
	Margin float64
	// Audit is the probability that a screened-out cell is confirmed
	// anyway (see DefaultAudit); zero applies the default, negative
	// disables auditing. It must be below 1: a certain audit confirms
	// every cell.
	Audit float64
	// AuditSeed seeds the deterministic audit sampler; zero means 1.
	AuditSeed uint64
}

// validate rejects a margin or audit that would confirm every cell. A
// tiered grid may be far wider than the exact tier's grid guard, so such a
// setting would queue a cycle-accurate run of every cell past that guard.
func (o TieredOptions) validate() error {
	if math.IsNaN(o.Margin) || math.IsInf(o.Margin, 0) || o.Margin >= 1 {
		return fmt.Errorf("margin %g must be finite and below 1", o.Margin)
	}
	if math.IsNaN(o.Audit) || o.Audit >= 1 {
		return fmt.Errorf("audit %g must be below 1", o.Audit)
	}
	return nil
}

func (o TieredOptions) normalize() TieredOptions {
	if o.Audit == 0 {
		o.Audit = DefaultAudit
	}
	if o.Audit < 0 {
		o.Audit = 0
	}
	if o.AuditSeed == 0 {
		o.AuditSeed = 1
	}
	return o
}

// TieredReport is the outcome of one two-tier exploration.
type TieredReport struct {
	Space  Space
	Margin float64
	Audit  float64

	// Predicted holds every grid cell with the analytic tier's metrics and
	// the predicted frontier marked. Confirmed holds the cycle-accurately
	// simulated subset — predicted-frontier-with-margin cells plus the
	// audit sample — in grid order, with the confirmed frontier marked.
	Predicted []Point
	Confirmed []Point

	// MarginCells counts cells selected by frontier proximity; AuditCells
	// counts the extra random audits. Their sum is len(Confirmed).
	MarginCells int
	AuditCells  int

	// Err compares the analytic prediction against the cycle-accurate
	// result over every confirmed cell (per-instruction time and energy).
	Err analytic.Summary
}

// ExploreTiered screens the whole grid with the analytic model and
// confirms only the cells near the predicted frontier (plus a random audit
// sample) with cycle-accurate simulations through the lab. The confirmed
// points carry measured metrics; everything else stays predicted.
func ExploreTiered(s Space, model *analytic.Model, opt TieredOptions) (*TieredReport, error) {
	if err := opt.validate(); err != nil {
		return nil, fmt.Errorf("explore: %v", err)
	}
	opt = opt.normalize()
	if opt.Margin == 0 && model != nil {
		opt.Margin = AutoMargin(model)
	}
	plan, err := NewPlan(s)
	if err != nil {
		return nil, err
	}
	pred, err := predict(plan, model)
	if err != nil {
		return nil, err
	}
	markFrontier(pred)

	selected := slackSelect(pred, opt.Margin)
	rep := &TieredReport{Space: plan.Space, Margin: opt.Margin, Audit: opt.Audit, Predicted: pred}
	for _, sel := range selected {
		if sel {
			rep.MarginCells++
		}
	}
	// Deterministic audit sample over the screened-out cells, in grid
	// order: model error far from the predicted frontier is measured too,
	// and a cell the model mispredicts badly enough to screen out still
	// has a chance to surface.
	r := splitmix.Rand(opt.AuditSeed*splitmix.Gamma + 0xA5D17)
	for i := range pred {
		if !selected[i] && r.Float() < opt.Audit {
			selected[i] = true
			rep.AuditCells++
		}
	}

	confirmed, err := confirmCells(plan, selected, opt.Options, sim.Sampling{})
	if err != nil {
		return nil, err
	}
	markFrontier(confirmed)
	rep.Confirmed = confirmed

	for _, c := range confirmed {
		p := pred[c.gridIndex]
		if c.Result.Retired == 0 || p.Result.Retired == 0 ||
			c.Result.TimePS <= 0 || c.Result.EnergyPJ <= 0 {
			continue
		}
		cn, pn := float64(c.Result.Retired), float64(p.Result.Retired)
		rep.Err.Observe(
			float64(p.Result.TimePS)/pn, float64(c.Result.TimePS)/cn,
			p.Result.EnergyPJ/pn, c.Result.EnergyPJ/cn)
	}
	rep.Err.Finish()
	return rep, nil
}

// slackSelect marks every finite point within margin of the Pareto
// frontier of points: p survives unless some point dominates it even after
// p's speedup is credited by (1+margin) and its energy discounted by
// (1-margin). Frontier members always survive; with a margin of zero or
// below p counts against itself, so exactly the frontier survives. One
// sort plus a binary search per point — O(n log n).
func slackSelect(points []Point, margin float64) []bool {
	selected := make([]bool, len(points))
	idx := make([]int, 0, len(points))
	for i := range points {
		if points[i].finite() {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		return points[idx[a]].Speedup > points[idx[b]].Speedup
	})
	// prefixMin[k] = min energy among the k+1 fastest points.
	prefixMin := make([]float64, len(idx))
	minE := math.Inf(1)
	for k, i := range idx {
		if points[i].EnergyRatio < minE {
			minE = points[i].EnergyRatio
		}
		prefixMin[k] = minE
	}
	for _, i := range idx {
		p := &points[i]
		// L = number of points at least (1+margin) faster than p.
		need := p.Speedup * (1 + margin)
		L := sort.Search(len(idx), func(k int) bool {
			return points[idx[k]].Speedup < need
		})
		dominated := L > 0 && prefixMin[L-1] <= p.EnergyRatio*(1-margin)
		selected[i] = !dominated || p.OnFrontier
	}
	return selected
}

// CalibrationConfig derives the analytic training grid for a space: the
// space's own profiles, architectures (plus the baseline for
// normalization), nodes, and instruction budget, anchored at up to three
// boost values per axis drawn from the swept lists — so the model
// interpolates inside the space instead of extrapolating beyond it, and
// calibration jobs share cache entries with the confirmation runs.
func CalibrationConfig(s Space, opt Options) analytic.Config {
	s = s.normalize()
	archs := []sim.Arch{sim.ArchBaseline}
	for _, a := range s.Archs {
		if a != sim.ArchBaseline {
			archs = append(archs, a)
		}
	}
	// The default frontend leads both lists for the same reason the
	// baseline arch does: the normalization baseline predicts with it, so
	// the model must always cover it.
	preds := []string{branch.DirGShare}
	for _, p := range s.Predictors {
		if p != branch.DirGShare {
			preds = append(preds, p)
		}
	}
	pfs := []string{mem.PFNone}
	for _, p := range s.Prefetchers {
		if p != mem.PFNone {
			pfs = append(pfs, p)
		}
	}
	return analytic.Config{
		Profiles:     s.Profiles,
		Archs:        archs,
		FEBoosts:     anchorBoosts(s.FEBoosts),
		BEBoosts:     anchorBoosts(s.BEBoosts),
		Nodes:        s.Nodes,
		Predictors:   preds,
		Prefetchers:  pfs,
		Instructions: s.Instructions,
		Workers:      opt.Workers,
		Cache:        opt.Cache,
		Progress:     opt.Progress,
	}
}

// anchorBoosts picks the calibration anchors for one boost axis: the swept
// minimum, median, and maximum — the three points a quadratic residual
// basis needs — or the whole axis when it is already that small.
func anchorBoosts(list []int) []int {
	u := append([]int(nil), list...)
	sort.Ints(u)
	n := 0
	for i, v := range u {
		if i == 0 || v != u[n-1] {
			u[n] = v
			n++
		}
	}
	u = u[:n]
	if len(u) <= 3 {
		return u
	}
	return []int{u[0], u[len(u)/2], u[len(u)-1]}
}

// ConfirmedReport wraps the confirmed points as an ordinary Report, so the
// existing tables and CSV render them.
func (r *TieredReport) ConfirmedReport() *Report {
	return &Report{Space: r.Space, Points: r.Confirmed}
}

// Frontier returns the confirmed Pareto frontier, fastest first.
func (r *TieredReport) Frontier() []Point { return r.ConfirmedReport().Frontier() }

// Summary is the one-line account of what the tiers did, for CLIs and
// logs.
func (r *TieredReport) Summary() string {
	total := len(r.Predicted)
	conf := len(r.Confirmed)
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(conf) / float64(total)
	}
	return fmt.Sprintf("tiered: %d cells screened analytically, %d confirmed cycle-accurately (%.1f%%: %d near-frontier + %d audit, margin %g); prediction error %s",
		total, conf, pct, r.MarginCells, r.AuditCells, r.Margin, r.Err)
}

// CSV renders the confirmed cells with both measured and predicted metrics
// per row.
func (r *TieredReport) CSV() string {
	header := append(append([]string{}, csvHeader...), "pred_speedup", "pred_energy_ratio")
	records := [][]string{header}
	for _, p := range r.Confirmed {
		q := r.Predicted[p.gridIndex]
		rec := append(csvRecord(p), stats.F(q.Speedup, 4), stats.F(q.EnergyRatio, 4))
		records = append(records, rec)
	}
	var b strings.Builder
	writeCSV(&b, records)
	return b.String()
}
