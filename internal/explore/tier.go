package explore

// Planning vs execution. A Plan is the pure enumeration of a Space — every
// grid job, its baseline jobs, and the Point skeletons, in deterministic
// nested order — with no simulation attached. Two functions attach numbers
// to it: confirmCells runs a selection of cells through the lab (exactly,
// or sampled), and predict fills in a fitted model's predictions without
// simulating anything. Explore and ExploreSampled confirm every cell;
// ExploreTiered predicts the whole grid, then confirms only the cells near
// the predicted frontier.

import (
	"fmt"

	"flywheel/internal/analytic"
	"flywheel/internal/lab"
	"flywheel/internal/sim"
	"flywheel/internal/stats"
	"flywheel/internal/workload"
	"flywheel/internal/workload/synth"
)

// Plan is the execution-free half of an exploration: the normalized space,
// the enumerated grid and baseline jobs, and one unevaluated Point per grid
// cell (parallel to Grid).
type Plan struct {
	Space     Space
	Baselines []lab.Job
	Grid      []lab.Job
	Points    []Point
}

// NewPlan normalizes and validates the space and enumerates its grid.
func NewPlan(s Space) (*Plan, error) {
	s = s.normalize()
	if len(s.Profiles) == 0 {
		return nil, fmt.Errorf("explore: no profiles in the space")
	}
	baselines, grid, points := gridJobs(s)
	return &Plan{Space: s, Baselines: baselines, Grid: grid, Points: points}, nil
}

// Cells reports the number of grid cells the plan enumerates (baseline
// normalization jobs not included).
func (p *Plan) Cells() int { return len(p.Grid) }

// confirmCells runs the selected grid cells (and their baselines) through
// the lab — exactly when samp is zero, sampled otherwise — and returns
// them as measured points in grid order, each tagged with its grid index.
// Baselines keep plan order, so with every cell selected the job list is
// the whole plan: baselines first, then the grid.
func confirmCells(plan *Plan, selected []bool, opt Options, samp sim.Sampling) ([]Point, error) {
	// Register only the profiles that are actually confirmed: on a
	// 100k-cell grid, generating every workload would cost more than the
	// confirmation runs.
	var profiles []synth.Profile
	seenProfile := map[string]bool{}
	neededBase := map[string]bool{}
	var indices []int
	for i, sel := range selected {
		if !sel {
			continue
		}
		indices = append(indices, i)
		p := plan.Points[i]
		if name := p.Profile.Name(); !seenProfile[name] {
			seenProfile[name] = true
			profiles = append(profiles, p.Profile)
		}
		neededBase[baseKey(p.Profile.Name(), p.Node)] = true
	}
	if len(indices) == 0 {
		return nil, nil
	}
	if err := registerProfiles(profiles); err != nil {
		return nil, err
	}

	var baselines []lab.Job
	for _, j := range plan.Baselines {
		if neededBase[baseKey(j.Workload, j.Node)] {
			baselines = append(baselines, j)
		}
	}
	jobs := append([]lab.Job{}, baselines...)
	for _, i := range indices {
		jobs = append(jobs, plan.Grid[i])
	}
	for i := range jobs {
		jobs[i].Sampling = samp
	}
	cache := opt.Cache
	if cache == nil {
		cache = sharedCache
	}
	res, err := lab.Run(jobs, lab.Options{Workers: opt.Workers, Cache: cache, Progress: opt.Progress})
	if err != nil {
		return nil, err
	}

	base := map[string]sim.Result{}
	for i, j := range baselines {
		base[baseKey(j.Workload, j.Node)] = res[i]
	}
	points := make([]Point, len(indices))
	for k, i := range indices {
		points[k] = plan.Points[i]
		points[k].gridIndex = i
		b := base[baseKey(points[k].Profile.Name(), points[k].Node)]
		fillPoint(&points[k], res[len(baselines)+k], b, false)
	}
	return points, nil
}

// predict evaluates every cell with a calibrated closed-form model —
// nanoseconds per cell instead of milliseconds — so grids far beyond the
// exact tier's budget can be screened before any simulator runs. No
// workload is generated or registered and no simulation runs; the plan is
// not mutated.
func predict(p *Plan, model *analytic.Model) ([]Point, error) {
	if model == nil {
		return nil, fmt.Errorf("explore: analytic tier has no model; run analytic.Calibrate first")
	}
	points := append([]Point(nil), p.Points...)
	n := p.Space.Instructions
	// One baseline prediction per (profile, node), mirroring the exact
	// tier's baseline jobs.
	base := map[string]sim.Result{}
	for i := range points {
		pt := &points[i]
		k := baseKey(pt.Profile.Name(), pt.Node)
		b, ok := base[k]
		if !ok {
			var err error
			// The normalization baseline always runs the default frontend,
			// mirroring the exact tier's baseline jobs.
			b, err = model.Predict(pt.Profile, sim.ArchBaseline, pt.Node, 0, 0, analytic.Frontend{}, n)
			if err != nil {
				return nil, err
			}
			base[k] = b
		}
		front := analytic.Frontend{Predictor: pt.Predictor, Prefetcher: pt.Prefetcher}
		r, err := model.Predict(pt.Profile, pt.Arch, pt.Node, pt.FEBoost, pt.BEBoost, front, n)
		if err != nil {
			return nil, err
		}
		fillPoint(pt, r, b, true)
	}
	return points, nil
}

// fillPoint attaches a result and its baseline to the point and derives the
// paper metrics.
func fillPoint(p *Point, r, b sim.Result, predicted bool) {
	p.Result = r
	p.Baseline = b
	p.Speedup = r.Speedup(b)
	p.EnergyRatio = stats.Ratio(r.EnergyPJ, b.EnergyPJ)
	p.Predicted = predicted
	p.Sampled = r.Sampled != nil
}

// registerProfiles generates and registers the synthetic workload of every
// profile; registering an already-registered profile is a cheap no-op.
func registerProfiles(profiles []synth.Profile) error {
	for _, p := range profiles {
		w, err := synth.Build(p)
		if err != nil {
			return err
		}
		if err := workload.Register(w); err != nil {
			return err
		}
	}
	return nil
}
