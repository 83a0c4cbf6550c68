// Package analytic fits and evaluates a fast closed-form performance and
// energy model for the multiple-speed-pipeline design space. The
// cycle-accurate simulator costs milliseconds per grid cell; the analytic
// model costs nanoseconds — a dot product — so it can screen 10k–100k-cell
// explorations and leave the simulator to confirm only the cells that
// matter (see explore.ExploreTiered).
//
// The model is calibrated against this repository's own simulator, in the
// style of Lumos' probe sweeps and Charm's closed-form technology models:
// Calibrate runs a small seeded training grid through the lab (so
// calibration runs are memoized and store-persisted like any other job) and
// fits, per (architecture, technology node), ridge-regularized least
// squares from workload-profile and clock-boost features to
// log(time-per-instruction) and log(energy-per-instruction). Log targets
// make the fit multiplicative — boost factors scale execution time as power
// laws, and prediction error is naturally relative — which is what frontier
// screening needs: the Pareto metrics are ratios.
package analytic

import (
	"fmt"
	"math"
	"strconv"

	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/lab"
	"flywheel/internal/mem"
	"flywheel/internal/sim"
	"flywheel/internal/splitmix"
	"flywheel/internal/workload"
	"flywheel/internal/workload/synth"
)

// FeatureNames labels the model's feature vector, in order. The profile
// knobs enter directly (fractions) or log-compressed (footprints, whose
// effect on miss rates is roughly logarithmic); the clock boosts enter as
// log(1+boost/100) so a fitted coefficient c means "time scales as
// boost^c"; and two interaction terms let the front-end boost's benefit
// depend on branch entropy and ILP, the couplings the paper's Figures 12-14
// turn on.
var FeatureNames = []string{
	"intercept",
	"inv_ilp",
	"branch_entropy",
	"fp_mix",
	"log2_mem_kb",
	"stride_frac",
	"reg_reuse",
	"log2_code_kb",
	"log_fe_boost",
	"log_be_boost",
	"entropy_x_fe",
	"inv_ilp_x_fe",
	"chase_frac",
	"log2_period_rel",
	"log2_stride_rel",
}

// features maps one grid cell to the model's input vector. The three
// frontend-stress knobs enter relative to their legacy defaults (period
// 512, stride 8 B), so every pre-existing profile's vector keeps zeros
// there and old fits are reproduced exactly.
func features(p synth.Profile, feBoostPct, beBoostPct int) []float64 {
	d := p.Defaulted()
	invILP := 1 / float64(d.ILP)
	logFE := math.Log1p(float64(feBoostPct) / 100)
	logBE := math.Log1p(float64(beBoostPct) / 100)
	period, stride := 512.0, 8.0
	if d.BranchPeriod > 0 {
		period = float64(d.BranchPeriod)
	}
	if d.StrideBytes > 0 {
		stride = float64(d.StrideBytes)
	}
	return []float64{
		1,
		invILP,
		d.BranchEntropy,
		d.FPMix,
		math.Log2(float64(d.MemFootprintKB)),
		d.StrideFrac,
		d.RegReuse,
		math.Log2(float64(d.CodeFootprintKB)),
		logFE,
		logBE,
		d.BranchEntropy * logFE,
		invILP * logFE,
		d.ChaseFrac,
		math.Log2(period / 512),
		math.Log2(stride / 8),
	}
}

// coeffs is one (arch, node) group's fitted weights over the feature
// vector: predictors of log(ps/instruction) and log(pJ/instruction).
type coeffs struct {
	time   []float64
	energy []float64
}

// boostFeatures is the quadratic response basis in the boost axes, used by
// the per-profile residual anchors: rich enough to interpolate a 3×3
// calibration grid's curvature, cheap enough to fit on 9 observations.
func boostFeatures(feBoostPct, beBoostPct int) []float64 {
	fe := math.Log1p(float64(feBoostPct) / 100)
	be := math.Log1p(float64(beBoostPct) / 100)
	return []float64{1, fe, be, fe * fe, be * be, fe * be}
}

// anchor is a per-(profile, arch, node) residual correction over
// boostFeatures, fitted to the profile's own training cells after the
// global fit. Profiles seen during calibration predict with near
// interpolation accuracy; unseen profiles fall back to the global model.
type anchor struct {
	time   []float64
	energy []float64
}

// Frontend names one predictor/prefetcher pairing. The zero value means
// the defaults; normalize canonicalizes it so map keys are stable.
type Frontend struct {
	Predictor  string
	Prefetcher string
}

func (f Frontend) normalize() Frontend {
	if f.Predictor == "" {
		f.Predictor = branch.DirGShare
	}
	if f.Prefetcher == "" {
		f.Prefetcher = mem.PFNone
	}
	return f
}

// groupKey identifies one (arch, node, frontend) coefficient set: frontend
// components change the machine's time/energy response to the profile
// knobs (TAGE flattens the entropy slope, a prefetcher flattens the
// footprint slope), so each pairing gets its own fit.
func groupKey(a sim.Arch, n cacti.Node, fe Frontend) string {
	fe = fe.normalize()
	return fmt.Sprintf("%d@%s/%s/%s", a, strconv.FormatFloat(float64(n), 'g', -1, 64),
		fe.Predictor, fe.Prefetcher)
}

// anchorKey identifies one profile's residual anchor within a group.
func anchorKey(profile string, a sim.Arch, n cacti.Node, fe Frontend) string {
	return profile + "|" + groupKey(a, n, fe)
}

// Summary aggregates prediction error as absolute relative error on the
// per-instruction time and energy (fractions: 0.03 means 3%).
type Summary struct {
	Cells        int     `json:"cells"`
	TimeMAPE     float64 `json:"time_mape"`
	TimeMaxAPE   float64 `json:"time_max_ape"`
	EnergyMAPE   float64 `json:"energy_mape"`
	EnergyMaxAPE float64 `json:"energy_max_ape"`
}

// Observe folds one predicted-vs-measured pair into the summary. The mean
// is accumulated as a running sum in TimeMAPE/EnergyMAPE until Finish.
func (s *Summary) Observe(predTime, actualTime, predEnergy, actualEnergy float64) {
	te := math.Abs(predTime/actualTime - 1)
	ee := math.Abs(predEnergy/actualEnergy - 1)
	s.Cells++
	s.TimeMAPE += te
	s.EnergyMAPE += ee
	s.TimeMaxAPE = math.Max(s.TimeMaxAPE, te)
	s.EnergyMaxAPE = math.Max(s.EnergyMaxAPE, ee)
}

// Finish converts the accumulated sums into means; call once after the
// last Observe.
func (s *Summary) Finish() {
	if s.Cells > 0 {
		s.TimeMAPE /= float64(s.Cells)
		s.EnergyMAPE /= float64(s.Cells)
	}
}

// String renders the summary for log lines and tables.
func (s Summary) String() string {
	return fmt.Sprintf("time %.1f%% mean / %.1f%% max, energy %.1f%% mean / %.1f%% max over %d cells",
		100*s.TimeMAPE, 100*s.TimeMaxAPE, 100*s.EnergyMAPE, 100*s.EnergyMaxAPE, s.Cells)
}

// Model is a calibrated analytic performance/energy model: one coefficient
// set per (architecture, technology node) seen during calibration. A Model
// is immutable after Calibrate and safe for concurrent use.
type Model struct {
	sets    map[string]coeffs
	anchors map[string]anchor
	// TrainingCells is the number of simulator runs the fit consumed;
	// TrainingErr is the in-sample residual summary (out-of-sample error is
	// measured by the tiered explorer's confirmation stage).
	TrainingCells int
	TrainingErr   Summary
}

// Covers reports whether the model was calibrated for the given
// architecture, node and frontend.
func (m *Model) Covers(a sim.Arch, n cacti.Node, front Frontend) bool {
	_, ok := m.sets[groupKey(a, n, front)]
	return ok
}

// Predict evaluates the model for one grid cell and shapes the answer as a
// sim.Result so downstream reporting (speedup, energy ratio, CSV) treats
// predictions and measurements uniformly. TimePS and EnergyPJ are the
// predicted per-instruction costs scaled by instructions; Cycles and IPC
// are derived from the node's baseline clock for table cosmetics. The cost
// is two dot products.
func (m *Model) Predict(p synth.Profile, arch sim.Arch, node cacti.Node, feBoostPct, beBoostPct int, front Frontend, instructions uint64) (sim.Result, error) {
	if node == 0 {
		node = cacti.Node130
	}
	if arch == sim.ArchBaseline {
		feBoostPct, beBoostPct = 0, 0
	}
	front = front.normalize()
	c, ok := m.sets[groupKey(arch, node, front)]
	if !ok {
		return sim.Result{}, fmt.Errorf("analytic: model not calibrated for %s at %s with %s/%s",
			arch, node, front.Predictor, front.Prefetcher)
	}
	x := features(p, feBoostPct, beBoostPct)
	logTime := dot(c.time, x)
	logEnergy := dot(c.energy, x)
	if a, ok := m.anchors[anchorKey(p.Name(), arch, node, front)]; ok {
		bf := boostFeatures(feBoostPct, beBoostPct)
		logTime += dot(a.time, bf)
		logEnergy += dot(a.energy, bf)
	}
	psPerInst := math.Exp(logTime)
	pjPerInst := math.Exp(logEnergy)
	n := float64(instructions)
	res := sim.Result{
		Config: sim.RunConfig{
			Workload: p.Name(), Arch: arch, Node: node,
			FEBoostPct: feBoostPct, BEBoostPct: beBoostPct,
			MaxInstructions: instructions,
			Predictor:       front.Predictor, Prefetcher: front.Prefetcher,
		},
		TimePS:   int64(math.Round(psPerInst * n)),
		Retired:  instructions,
		EnergyPJ: pjPerInst * n,
	}
	if period := cacti.BaselinePeriodPS(node); period > 0 && res.TimePS > 0 {
		res.Cycles = uint64(res.TimePS / period)
		if res.Cycles > 0 {
			res.IPC = n / float64(res.Cycles)
		}
		res.PowerW = res.EnergyPJ / float64(res.TimePS)
	}
	return res, nil
}

func dot(w, x []float64) float64 {
	s := 0.0
	for i, v := range w {
		s += v * x[i]
	}
	return s
}

// Config parameterizes Calibrate. Nil or zero fields default: the training
// profiles to DefaultTrainingProfiles(1), archs to all three machines,
// boosts to {0, 50, 100} × {0, 50, 100}, nodes to {0.13 µm}, instructions
// to 20k.
type Config struct {
	Profiles []synth.Profile
	Archs    []sim.Arch
	FEBoosts []int
	BEBoosts []int
	Nodes    []cacti.Node
	// Predictors / Prefetchers are the frontend axes; nil means the
	// defaults ({"gshare"} / {"none"}). Every (predictor, prefetcher)
	// pairing trains its own coefficient set.
	Predictors   []string
	Prefetchers  []string
	Instructions uint64
	// Workers sizes the lab worker pool; Cache memoizes the calibration
	// runs (nil uses a private cache). Progress mirrors lab.Options.
	Workers  int
	Cache    *lab.Cache
	Progress func(done, total int, j lab.Job)
}

func (c Config) normalize() Config {
	if c.Profiles == nil {
		c.Profiles = DefaultTrainingProfiles(1)
	}
	if c.Archs == nil {
		c.Archs = []sim.Arch{sim.ArchBaseline, sim.ArchFlywheel, sim.ArchRegAlloc}
	}
	if c.FEBoosts == nil {
		c.FEBoosts = []int{0, 50, 100}
	}
	if c.BEBoosts == nil {
		c.BEBoosts = []int{0, 50, 100}
	}
	if c.Nodes == nil {
		c.Nodes = []cacti.Node{cacti.Node130}
	}
	if c.Predictors == nil {
		c.Predictors = []string{branch.DirGShare}
	}
	if c.Prefetchers == nil {
		c.Prefetchers = []string{mem.PFNone}
	}
	if c.Instructions == 0 {
		c.Instructions = 20_000
	}
	return c
}

// Cells reports how many simulator runs Calibrate submits for this config
// (after defaulting): the training-grid size, used to decide whether
// calibrating pays for itself against exploring exactly.
func (c Config) Cells() int {
	c = c.normalize()
	perProfile := 0
	for _, a := range c.Archs {
		if a == sim.ArchBaseline {
			perProfile++
		} else {
			perProfile += len(c.FEBoosts) * len(c.BEBoosts)
		}
	}
	return len(c.Profiles) * len(c.Nodes) * len(c.Predictors) * len(c.Prefetchers) * perProfile
}

// DefaultTrainingProfiles returns a deterministic spread of profiles that
// exercises every model feature: fixed corner profiles (serial, parallel,
// high-entropy, FP-heavy, big-footprint) plus seeded quasi-random fills.
// The same seed always yields the same profiles, so calibration jobs are
// memoized and store-persisted like any other lab run.
func DefaultTrainingProfiles(seed uint64) []synth.Profile {
	profiles := []synth.Profile{
		{ILP: 1, MemFootprintKB: 4, CodeFootprintKB: 1, Passes: 1, Seed: seed},
		{ILP: 6, MemFootprintKB: 4, CodeFootprintKB: 1, Passes: 1, Seed: seed},
		{ILP: 4, BranchEntropy: 1, MemFootprintKB: 4, CodeFootprintKB: 1, Passes: 1, Seed: seed},
		{ILP: 4, FPMix: 1, MemFootprintKB: 4, CodeFootprintKB: 1, Passes: 1, Seed: seed},
		{ILP: 4, MemFootprintKB: 128, StrideFrac: 1, CodeFootprintKB: 1, Passes: 1, Seed: seed},
		{ILP: 4, MemFootprintKB: 128, CodeFootprintKB: 16, RegReuse: 1, Passes: 1, Seed: seed},
	}
	r := splitmix.Rand(seed*splitmix.Gamma + 0x123456789)
	quarters := func() float64 { return float64(r.Intn(5)) / 4 }
	for i := 0; i < 10; i++ {
		profiles = append(profiles, synth.Profile{
			ILP:             1 + r.Intn(synth.MaxILP),
			BranchEntropy:   quarters(),
			FPMix:           quarters(),
			MemFootprintKB:  4 << r.Intn(6), // 4..128 KiB
			StrideFrac:      quarters(),
			RegReuse:        quarters(),
			CodeFootprintKB: 1 << r.Intn(5), // 1..16 KiB
			Passes:          1,
			Seed:            seed + uint64(i) + 1,
		})
	}
	return profiles
}

// Calibrate runs the training grid through the lab and fits the model. The
// baseline architecture ignores clock boosts, so it contributes one cell
// per (profile, node); the boosted machines contribute the full boost
// cross-product. Identical calibration configs share cache entries with any
// other exploration, so re-calibrating against a warm store simulates
// nothing.
func Calibrate(cfg Config) (*Model, error) {
	cfg = cfg.normalize()
	if len(cfg.Profiles) == 0 {
		return nil, fmt.Errorf("analytic: no training profiles")
	}
	for _, p := range cfg.Profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		w, err := synth.Build(p)
		if err != nil {
			return nil, err
		}
		if err := workload.Register(w); err != nil {
			return nil, err
		}
	}

	// Enumerate the training grid in deterministic nested order; remember
	// each job's feature vector and groups alongside it.
	type cell struct {
		key    string // (arch, node) group
		anchor string // (profile, arch, node) residual group
		x      []float64
		bf     []float64
	}
	var jobs []lab.Job
	var cells []cell
	for _, p := range cfg.Profiles {
		name := p.Name()
		for _, node := range cfg.Nodes {
			for _, arch := range cfg.Archs {
				fes, bes := cfg.FEBoosts, cfg.BEBoosts
				if arch == sim.ArchBaseline {
					fes, bes = []int{0}, []int{0}
				}
				for _, pred := range cfg.Predictors {
					for _, pf := range cfg.Prefetchers {
						front := Frontend{Predictor: pred, Prefetcher: pf}
						for _, fe := range fes {
							for _, be := range bes {
								jobs = append(jobs, lab.Job{
									Workload: name, Arch: arch, Node: node,
									FEBoostPct: fe, BEBoostPct: be,
									MaxInstructions: cfg.Instructions,
									Predictor:       pred, Prefetcher: pf,
								})
								cells = append(cells, cell{
									key:    groupKey(arch, node, front),
									anchor: anchorKey(name, arch, node, front),
									x:      features(p, fe, be),
									bf:     boostFeatures(fe, be),
								})
							}
						}
					}
				}
			}
		}
	}

	res, err := lab.Run(jobs, lab.Options{Workers: cfg.Workers, Cache: cfg.Cache, Progress: cfg.Progress})
	if err != nil {
		return nil, err
	}

	// Group the observations and fit each (arch, node) independently,
	// remembering each cell's log targets for the residual pass.
	type group struct {
		X           [][]float64
		timeTargets []float64
		enTargets   []float64
	}
	groups := map[string]*group{}
	logTime := make([]float64, len(cells))
	logEnergy := make([]float64, len(cells))
	for i, c := range cells {
		r := res[i]
		if r.Retired == 0 || r.TimePS <= 0 || r.EnergyPJ <= 0 {
			return nil, fmt.Errorf("analytic: degenerate calibration run %s (retired=%d time=%d energy=%g)",
				jobs[i].Key(), r.Retired, r.TimePS, r.EnergyPJ)
		}
		n := float64(r.Retired)
		logTime[i] = math.Log(float64(r.TimePS) / n)
		logEnergy[i] = math.Log(r.EnergyPJ / n)
		g := groups[c.key]
		if g == nil {
			g = &group{}
			groups[c.key] = g
		}
		g.X = append(g.X, c.x)
		g.timeTargets = append(g.timeTargets, logTime[i])
		g.enTargets = append(g.enTargets, logEnergy[i])
	}

	m := &Model{sets: map[string]coeffs{}, anchors: map[string]anchor{}, TrainingCells: len(jobs)}
	for key, g := range groups {
		m.sets[key] = coeffs{
			time:   fitOrMean(g.X, g.timeTargets),
			energy: fitOrMean(g.X, g.enTargets),
		}
	}

	// Second level: per-(profile, arch, node) residual anchors over the
	// quadratic boost basis, fitted by least squares to what the global
	// model gets wrong on that profile's own training cells. This is what
	// buys frontier-screening accuracy: calibrated profiles predict with
	// near-interpolation error, while unseen profiles still fall back to
	// the global fit. Groups too small to fit store the mean residual as a
	// constant bias (a baseline group is one cell, so its anchor memoizes
	// it exactly).
	type residGroup struct {
		bf    [][]float64
		timeR []float64
		enR   []float64
	}
	residGroups := map[string]*residGroup{}
	for i, c := range cells {
		set := m.sets[c.key]
		g := residGroups[c.anchor]
		if g == nil {
			g = &residGroup{}
			residGroups[c.anchor] = g
		}
		g.bf = append(g.bf, c.bf)
		g.timeR = append(g.timeR, logTime[i]-dot(set.time, c.x))
		g.enR = append(g.enR, logEnergy[i]-dot(set.energy, c.x))
	}
	for key, g := range residGroups {
		m.anchors[key] = anchor{
			time:   fitOrMean(g.bf, g.timeR),
			energy: fitOrMean(g.bf, g.enR),
		}
	}

	// In-sample error with anchors applied: the honest floor for choosing a
	// tiered margin.
	for i, c := range cells {
		set := m.sets[c.key]
		a := m.anchors[c.anchor]
		m.TrainingErr.Observe(
			math.Exp(dot(set.time, c.x)+dot(a.time, c.bf)), math.Exp(logTime[i]),
			math.Exp(dot(set.energy, c.x)+dot(a.energy, c.bf)), math.Exp(logEnergy[i]))
	}
	m.TrainingErr.Finish()
	return m, nil
}

// fitOrMean fits targets by ridge-regularized least squares, falling back
// to a constant mean when the group is too small (fewer than three
// observations — a baseline group for one profile is a single cell) or the
// solve degenerates. The fallback keeps Calibrate total: per-profile
// anchors absorb what a constant global fit misses, and TrainingErr
// reports whatever error remains.
func fitOrMean(X [][]float64, y []float64) []float64 {
	if len(y) >= 3 {
		if w, err := solveRidge(X, y); err == nil {
			return w
		}
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	w := make([]float64, len(X[0]))
	w[0] = mean
	return w
}
