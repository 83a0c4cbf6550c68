// Package sim assembles complete simulations: it picks the clock plan for a
// technology node from the cacti model, fast-forwards a workload to its
// measured phase, runs the chosen machine (baseline superscalar, Flywheel,
// or the Register-Allocation-only configuration), and attaches the energy
// model — producing the single-run results the experiment harness and the
// public API consume.
package sim

import (
	"fmt"

	"flywheel/internal/asm"
	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/core"
	"flywheel/internal/emu"
	"flywheel/internal/mem"
	"flywheel/internal/ooo"
	"flywheel/internal/pipe"
	"flywheel/internal/power"
	"flywheel/internal/workload"
)

// Arch selects the machine to simulate.
type Arch int

// Machine architectures.
const (
	// ArchBaseline is the paper's fully synchronous superscalar
	// out-of-order baseline (Table 2).
	ArchBaseline Arch = iota
	// ArchFlywheel is the full proposal: dual-clock issue window,
	// execution cache, two-phase renaming.
	ArchFlywheel
	// ArchRegAlloc is Figure 11's intermediate configuration: dual-clock
	// issue window and the new register allocation without the EC.
	ArchRegAlloc
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case ArchFlywheel:
		return "flywheel"
	case ArchRegAlloc:
		return "regalloc"
	default:
		return "baseline"
	}
}

// RunConfig describes one simulation.
type RunConfig struct {
	Workload string
	Arch     Arch
	// Node selects the technology point; it fixes the baseline clock (the
	// issue-window frequency) and the power model parameters.
	Node cacti.Node
	// FEBoostPct / BEBoostPct are the Flywheel clock-ratio sweep knobs
	// (§5): percentage speedup of the front-end domain and of the
	// trace-execution back-end over the baseline clock.
	FEBoostPct int
	BEBoostPct int
	// MaxInstructions bounds the measured dynamic instruction count
	// (after the workload's warm-up); 0 runs to completion.
	MaxInstructions uint64

	// Predictor selects the conditional-direction predictor ("" or
	// "gshare", "tage", "always-taken") and Prefetcher the L1↔L2
	// prefetcher ("" or "none", "delta") — the pluggable frontend axes.
	Predictor  string
	Prefetcher string

	// Figure 2 baseline variants.
	ExtraFrontEndStages   int
	PipelinedWakeupSelect bool

	// Sampling, when enabled (Period > 0), runs the simulation in sampled
	// mode: detailed windows at a systematic period over a fast-forwarded,
	// functionally warmed replay, with confidence intervals across the
	// windows in Result.Sampled. The zero value is exact execution.
	Sampling Sampling
}

// normalizeFrontend canonicalizes the frontend selections ("" becomes the
// defaults the paper models) and rejects unknown names.
func (c *RunConfig) normalizeFrontend() error {
	if !branch.KnownDirection(c.Predictor) {
		return fmt.Errorf("sim: unknown predictor %q (known: %v)", c.Predictor, branch.Directions())
	}
	if !mem.KnownPrefetcher(c.Prefetcher) {
		return fmt.Errorf("sim: unknown prefetcher %q (known: %v)", c.Prefetcher, mem.Prefetchers())
	}
	if c.Predictor == "" {
		c.Predictor = branch.DirGShare
	}
	if c.Prefetcher == "" {
		c.Prefetcher = mem.PFNone
	}
	return nil
}

// Result is one simulation outcome.
type Result struct {
	Config  RunConfig
	TimePS  int64
	Cycles  uint64
	Retired uint64
	IPC     float64

	// EnergyPJ and PowerW come from the power model at the run's node.
	EnergyPJ    float64
	PowerW      float64
	LeakageFrac float64

	// Flywheel-specific observables (zero for the baseline).
	ECResidency float64
	Divergences uint64

	Mispredicts    uint64
	BranchAccuracy float64

	// Frontend observables: conditional-branch volume (with Mispredicts it
	// lets accuracies aggregate across runs), prefetch effectiveness, and
	// the demand-side memory behaviour the prefetcher is meant to improve.
	CondBranches     uint64
	PrefetchIssued   uint64
	PrefetchUseful   uint64
	PrefetchLate     uint64
	PrefetchAccuracy float64
	PrefetchCoverage float64
	AvgDataCycles    float64
	DemandL2HitRate  float64

	// Sampled is present only for sampled runs (RunConfig.Sampling
	// enabled): window coverage and per-metric confidence intervals.
	Sampled *SampledStats
}

// Speedup returns other's execution time divided by r's (how much faster r
// is than other).
func (r Result) Speedup(other Result) float64 {
	if r.TimePS == 0 {
		return 0
	}
	return float64(other.TimePS) / float64(r.TimePS)
}

// Run executes one simulation. The first run of a workload executes its
// initialization phase once and caches the result as a copy-on-write warm
// snapshot; every later run — any architecture, boost, node or instruction
// budget — clones the snapshot, and seeds its caches and predictor from a
// template warmed once per configuration (see warm.go). A run, exact
// or sampled, is Simulate followed by Price at its own node (see
// timing.go).
func Run(cfg RunConfig) (Result, error) {
	t, err := Simulate(cfg)
	if err != nil {
		return Result{}, err
	}
	return t.Price(cfg)
}

// normalize fills cfg's defaults and rejects configurations that cannot
// run.
func (c RunConfig) normalize() (RunConfig, error) {
	if c.Node == 0 {
		c.Node = cacti.Node130
	}
	if _, err := power.Tech(c.Node); err != nil {
		return c, err
	}
	if err := c.normalizeFrontend(); err != nil {
		return c, err
	}
	c.Sampling = c.Sampling.Normalize()
	return c, c.Sampling.Validate()
}

// replay calls fn with the workload and its measured instruction stream.
// The stream starts at the workload's warm snapshot (workload.WarmState).
// The trace cache decides where its records come from — a recording pass
// over live emulation, a replay of an earlier recording, or plain live
// emulation on a bypass (see tracecache.go) — and fn sees the same records
// in every case.
func replay(cfg RunConfig, fn func(w *workload.Workload, stream pipe.InstSource) error) error {
	w, err := workload.Get(cfg.Workload)
	if err != nil {
		return err
	}
	snap, err := w.WarmState()
	if err != nil {
		return err
	}
	stream, finish := acquireSource(w, snap, cfg.MaxInstructions)
	// finish must run exactly once on every exit — including a panic in a
	// timing core (the lab recovers panics into error results, so without
	// this a recording would stay in flight forever and every later run of
	// the workload would bypass the cache).
	finished := false
	defer func() {
		if !finished {
			finish(fmt.Errorf("sim %s/%s: run aborted", cfg.Workload, cfg.Arch))
		}
	}()
	err = fn(w, stream)
	finish(err)
	finished = true
	return err
}

// machine adapts one timing core to the runners. A sampled run keeps one
// machine for all its windows, so the Execution Cache, rename pools,
// predictor and caches warm once and stay warm; it drives the core through
// an instruction gate and resumes it window by window.
type machine struct {
	shape power.MachineShape
	// warm seeds the core from the workload's initialization phase;
	// warmer keeps its caches and predictor warm across fast-forwards.
	warm     func(w *workload.Workload) error
	warmer   *pipe.Warmer
	resume   func(warmupInsts uint64) bool
	run      func() error
	counters func() counters
	// marks calls fn with the counters as of each retirement count in ms.
	marks func(ms []uint64, fn func(i int, c counters))
}

// design is one core's configuration, built but not yet instantiated: its
// clock plan is known before any simulation state is allocated.
type design struct {
	plan  clockPlan
	build func(src pipe.InstSource) *machine
}

// newDesign builds the configuration of the core cfg.Arch selects, clocked
// from period. It is the only place that dispatches on the architecture.
func newDesign(cfg RunConfig, period int64) (design, error) {
	switch cfg.Arch {
	case ArchBaseline:
		bc := baselineConfig(cfg, period)
		return design{plan: planOf(bc), build: func(src pipe.InstSource) *machine {
			c := ooo.New(bc, src)
			read := func(s ooo.Stats) counters {
				return counters{Act: s.Activity(), Mispredicts: s.Mispredicts, Pred: s.Pred, Prefetch: s.Prefetch, Demand: s.Demand}
			}
			return &machine{
				shape: power.BaselineShape(),
				warm: func(w *workload.Workload) error {
					return warm(c.Warmer(), w, bc.Mem, bc.Branch)
				},
				warmer:   c.Warmer(),
				resume:   func(uint64) bool { return c.Resume() },
				run:      func() error { _, err := c.Run(); return err },
				counters: func() counters { return read(c.StatsSnapshot()) },
				marks: func(ms []uint64, fn func(int, counters)) {
					c.SetMarks(ms, func(i int, s ooo.Stats) { fn(i, read(s)) })
				},
			}
		}}, nil
	case ArchFlywheel, ArchRegAlloc:
		fc := flywheelConfig(cfg, period)
		return design{plan: planOf(fc), build: func(src pipe.InstSource) *machine {
			c := core.New(fc, src)
			read := func(s core.Stats) counters {
				return counters{Act: s.Activity(), ReplayPS: s.ReplayTimePS, Mispredicts: s.Mispredicts,
					Divergences: s.Divergences, Pred: s.Pred, Prefetch: s.Prefetch, Demand: s.Demand}
			}
			return &machine{
				shape: power.FlywheelShape(),
				warm: func(w *workload.Workload) error {
					return warm(c.Warmer(), w, fc.Mem, fc.Branch)
				},
				warmer:   c.Warmer(),
				resume:   c.Resume,
				run:      func() error { _, err := c.Run(); return err },
				counters: func() counters { return read(c.StatsSnapshot()) },
				marks: func(ms []uint64, fn func(int, counters)) {
					c.SetMarks(ms, func(i int, s core.Stats) { fn(i, read(s)) })
				},
			}
		}}, nil
	}
	return design{}, fmt.Errorf("sim: unknown architecture %d", cfg.Arch)
}

// warmed builds the core over src and functionally warms it: the core's
// caches and branch predictor are seeded with the state the initialization
// phase leaves them in, so measurement starts from realistic state (the
// paper fast-forwards 500M instructions).
func (d design) warmed(src pipe.InstSource, w *workload.Workload) (*machine, error) {
	m := d.build(src)
	if err := m.warm(w); err != nil {
		return nil, err
	}
	return m, nil
}

// runExact runs the machine to the end of its source and returns its final
// counters. name and arch label errors.
func (m *machine) runExact(name string, arch Arch) (counters, error) {
	if err := m.run(); err != nil {
		return counters{}, fmt.Errorf("sim %s/%s: %w", name, arch, err)
	}
	return m.counters(), nil
}

func baselineConfig(cfg RunConfig, period int64) ooo.Config {
	c := ooo.DefaultConfig()
	c.PeriodPS = period
	c.Mem = mem.DefaultHierarchyConfig(period)
	c.Branch.Direction, c.Mem.Prefetch = frontendFor(cfg)
	c.ExtraFrontEndStages = cfg.ExtraFrontEndStages
	c.PipelinedWakeupSelect = cfg.PipelinedWakeupSelect
	c.MaxCycles = 500_000_000
	return c
}

func flywheelConfig(cfg RunConfig, period int64) core.Config {
	c := core.DefaultConfig()
	c.BasePeriodPS = period
	c.Mem = mem.DefaultHierarchyConfig(period)
	c.Branch.Direction, c.Mem.Prefetch = frontendFor(cfg)
	c.FEBoostPct = cfg.FEBoostPct
	c.BEBoostPct = cfg.BEBoostPct
	c.ECEnabled = cfg.Arch == ArchFlywheel
	c.MaxCycles = 500_000_000
	return c
}

// frontendFor maps the run's (already normalized) frontend selections onto
// the core configuration knobs.
func frontendFor(cfg RunConfig) (direction string, pf mem.PrefetchConfig) {
	direction = cfg.Predictor
	if direction == "" {
		direction = branch.DirGShare
	}
	return direction, mem.DefaultPrefetchConfig(cfg.Prefetcher)
}

// RunSource assembles the given program text and runs it like Run does for
// a registered workload (no warm-up: the whole program is measured). The
// Workload field of cfg is used only for labeling.
func RunSource(name, source string, cfg RunConfig) (Result, error) {
	prog, err := asm.Assemble(name, source)
	if err != nil {
		return Result{}, err
	}
	if cfg.Sampling.Enabled() {
		return Result{}, fmt.Errorf("sim: RunSource runs exact only; sampled execution is supported for registered workloads")
	}
	cfg, err = cfg.normalize()
	if err != nil {
		return Result{}, err
	}
	d, err := newDesign(cfg, cacti.BaselinePeriodPS(cfg.Node))
	if err != nil {
		return Result{}, err
	}
	m := d.build(emu.NewStream(emu.New(prog), cfg.MaxInstructions))
	c, err := m.runExact(name, cfg.Arch)
	if err != nil {
		return Result{}, err
	}
	return price(cfg, c, m.shape)
}
