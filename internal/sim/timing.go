package sim

import (
	"fmt"
	"strconv"

	"flywheel/internal/cacti"
	"flywheel/internal/pipe"
	"flywheel/internal/power"
	"flywheel/internal/sample"
	"flywheel/internal/workload"
)

// Shared timing records. A technology node changes two things about a
// run: the power model, and the picosecond length of every clock period
// and memory latency. The cores count time in edges of their clock domains
// and convert latencies to cycles by ratios of those quantities, so two
// runs whose clock plans are equal up to a common scale retire the same
// instructions on the same edges: their counter records are equal except
// for the picosecond fields, which scale with the plan. The same holds
// across the boost percentages, which the cores read only through the
// periods they set. A run therefore splits into Simulate, which produces
// the node-independent timing record, and Price, which turns a record into
// a Result at any node and boost that shares the record's timing.

// TimingID identifies the cycle-level timing of a run: its configuration
// without the node and the boost percentages, plus its reduced clock plan,
// which carries every period the node and the boosts set. Runs with equal
// identities share one Timing.
type TimingID struct {
	cfg  RunConfig // normalized; Node, FEBoostPct and BEBoostPct zero
	plan string    // the clock plan divided by its grain
}

// String labels the identity for messages.
func (id TimingID) String() string {
	s := fmt.Sprintf("%s/%s n=%d fes=%d pws=%t pred=%s pf=%s plan=%s",
		id.cfg.Workload, id.cfg.Arch, id.cfg.MaxInstructions, id.cfg.ExtraFrontEndStages,
		id.cfg.PipelinedWakeupSelect, id.cfg.Predictor, id.cfg.Prefetcher, id.plan)
	if sp := id.cfg.Sampling; sp.Enabled() {
		s += fmt.Sprintf(" samp=%d,%d,%d,%d", sp.Period, sp.WindowInsts, sp.WarmupInsts, sp.Seed)
	}
	return s
}

// Timing is the counter record of one run, before pricing at a node. An
// exact run records its final counters; a sampled run records each
// complete window's measurement delta and how far the stream went; Price
// feeds the windows to the estimator in stream order. A record is read
// only, so any number of jobs may price it at once.
type Timing struct {
	id    TimingID
	grain int64 // picoseconds per clock-plan unit in the simulated run
	shape power.MachineShape
	c     pipe.Counters // exact runs: the final record

	// Sampled runs only.
	windows  []pipe.Counters // complete windows' measurement deltas, in stream order
	pos      uint64          // stream position at the end: records delivered or fast-forwarded
	detailed uint64          // records run through the timing core
}

// TimingOf returns the timing identity of the run cfg.
func TimingOf(cfg RunConfig) (TimingID, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return TimingID{}, err
	}
	id, _, err := timingOf(cfg)
	return id, err
}

// timingOf builds the normalized run cfg's design and identity.
func timingOf(cfg RunConfig) (TimingID, design, error) {
	d, err := newDesign(cfg, cacti.BaselinePeriodPS(cfg.Node))
	if err != nil {
		return TimingID{}, design{}, err
	}
	cfg.Node, cfg.FEBoostPct, cfg.BEBoostPct = 0, 0, 0
	return TimingID{cfg: cfg, plan: d.plan.reduced}, d, nil
}

// Simulate runs cfg and returns its timing record, ready to be priced at
// cfg's node or at any other configuration with the same TimingID.
func Simulate(cfg RunConfig) (Timing, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return Timing{}, err
	}
	id, d, err := timingOf(cfg)
	if err != nil {
		return Timing{}, err
	}
	t := Timing{id: id, grain: d.plan.grain, shape: d.shape}
	err = replay(cfg, func(w *workload.Workload, stream pipe.InstSource) error {
		if !cfg.Sampling.Enabled() {
			return d.use(stream, w, func(m machine) error {
				var err error
				t.c, err = runExact(m, cfg.Workload, cfg.Arch)
				return err
			})
		}
		gate := sample.NewGate(stream)
		return d.use(gate, w, func(m machine) error {
			if err := sampleLoop(cfg.Sampling, stream, gate, m, &t); err != nil {
				return fmt.Errorf("sim %s/%s: %w", cfg.Workload, cfg.Arch, err)
			}
			return nil
		})
	})
	if err != nil {
		return Timing{}, err
	}
	return t, nil
}

// Price returns the Result of the run cfg from t, which must carry cfg's
// TimingID. The record's picosecond fields are rescaled from t's grain to
// cfg's; every other counter carries over unchanged. Energy is computed at
// cfg's node: for a sampled record window by window, feeding the
// estimator in stream order.
func (t Timing) Price(cfg RunConfig) (Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return Result{}, err
	}
	id, d, err := timingOf(cfg)
	if err != nil {
		return Result{}, err
	}
	if id != t.id {
		return Result{}, fmt.Errorf("sim: timing record %v cannot price %v", t.id, id)
	}
	if cfg.Sampling.Enabled() {
		return t.estimate(cfg, d.plan.grain)
	}
	return price(cfg, t.rescaled(t.c, d.plan.grain), t.shape)
}

// rescaled returns c with its picosecond fields converted from t's grain
// to a grain of to picoseconds.
func (t Timing) rescaled(c pipe.Counters, to int64) pipe.Counters {
	c.TimePS = rescale(c.TimePS, t.grain, to)
	c.ReplayPS = rescale(c.ReplayPS, t.grain, to)
	return c
}

// price builds cfg's Result from an exact run's final counters, with the
// energy of the machine shape at cfg's node.
func price(cfg RunConfig, c pipe.Counters, shape power.MachineShape) (Result, error) {
	tech, err := power.Tech(cfg.Node)
	if err != nil {
		return Result{}, err
	}
	res := resultFrom(cfg, c)
	rep := power.Compute(activity(c), shape, tech)
	res.EnergyPJ, res.PowerW, res.LeakageFrac = rep.TotalPJ, rep.AvgPowerW, rep.LeakageFrac
	return res, nil
}

// rescale converts ps from a grain of from to a grain of to picoseconds.
// Every simulated time is a whole number of grains, so the result is
// exact; it is split so the product cannot overflow.
func rescale(ps, from, to int64) int64 {
	return ps/from*to + ps%from*to/from
}

// clockPlan is every period and picosecond latency of a built core
// configuration, divided by their greatest common divisor, the grain. Two
// configurations whose plans reduce alike clock the same cycle-level
// schedule; only the picoseconds per grain differ.
type clockPlan struct {
	grain   int64
	reduced string
}

// planOf reduces the clock plan of a core configuration: every period and
// picosecond latency the configuration sets, which newDesign lists for
// each core. TestClockPlanListsEveryPS walks both configurations by
// reflection and fails on an int64 field or method ending in "PS" that a
// list omits, so a new absolute-time parameter can never make two runs
// share a record they should not.
func planOf(ps ...int64) clockPlan {
	var g int64
	for _, p := range ps {
		g = gcd(g, p)
	}
	if g == 0 {
		g = 1
	}
	var buf [64]byte
	reduced := buf[:0]
	for i, p := range ps {
		if i > 0 {
			reduced = append(reduced, ',')
		}
		reduced = strconv.AppendInt(reduced, p/g, 10)
	}
	return clockPlan{grain: g, reduced: string(reduced)}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}
