// Package sample implements SMARTS-style systematic sampling for the
// timing cores: short detailed windows simulated at full fidelity at a
// fixed period, with the regions between them fast-forwarded at
// near-emulator speed while the branch predictor and memory hierarchy are
// functionally warmed. Per-window observations aggregate into point
// estimates of IPC, time, and energy with a standard error computed across
// windows, so a sampled run reports not just a number but how much to
// trust it — the explorer uses that confidence interval to decide which
// cells still need an exact run.
package sample

import (
	"fmt"

	"flywheel/internal/splitmix"
)

// Defaults and structural constants of the sampling schedule.
const (
	// DefaultPeriod is the systematic sampling period in instructions.
	// With the default window geometry it keeps ~14% of a 300k-instruction
	// stream in detailed simulation (bootstrap included) — a >=5x per-cell
	// wall-clock reduction on the cycle-accurate cores. Longer windows at a
	// longer period beat many short windows here: the Flywheel cores'
	// per-window estimates are dominated by Execution Cache warm-up bias,
	// not by sampling variance, so window length buys more accuracy than
	// window count.
	DefaultPeriod = 60_000

	// DefaultWindowInsts is the measured length of one detailed window.
	DefaultWindowInsts = 6_000

	// DefaultWarmupInsts is the detailed (timed but unmeasured) warm-up
	// run before each window's measurement interval: long enough to fill
	// the ROB, issue window, and store queues with realistic occupancy,
	// and to let the Flywheel cores re-enter trace replay after the
	// resume's build-mode restart.
	DefaultWarmupInsts = 2_000

	// TailInsts is the detailed run past each window's measurement mark.
	// It keeps the pipeline fed while the last measured instructions
	// drain toward retirement, so the end-of-window statistics snapshot
	// is taken on a machine still in steady state rather than one
	// starved by the closed instruction gate.
	TailInsts = 256

	// BootstrapInsts is the length of the detailed, unmeasured bootstrap
	// run at the stream origin before the periodic schedule starts. The
	// exact run builds its hot Execution Cache traces once, from a cold
	// pipeline, at the very start of the program; a sampled run replays
	// that genesis so its EC holds the same traces — with the same
	// boundaries and issue-unit structure — rather than variants built
	// mid-stream under different conditions.
	BootstrapInsts = 8_192

	// WarmHorizon is the functional-warming horizon: FastForward warms
	// only the last WarmHorizon records of a gap and passes over the rest
	// unobserved, whatever the instruction source. The cores' caches and
	// predictor persist across windows, so the horizon refreshes recency
	// state rather than rebuilding it from cold, but estimates are not
	// insensitive to it. At 300k instructions, default schedule, warming
	// every record instead moves sampled IPC on vpr/baseline 1.1503 →
	// 1.0635 (exact 1.0443), vpr/regalloc 0.9028 → 0.8411 (exact 0.8470),
	// parser/baseline 0.6916 → 0.6620 (exact 0.6604) and gcc/baseline
	// 0.6465 → 0.6409 (exact 0.6505); the Flywheel cells of those three
	// kernels do not move. Withholding the passed-over records from the
	// predictor alone reproduces the horizon's results in all nine cells,
	// so the predictor carries the difference (see DESIGN.md,
	// "Fast-forward").
	WarmHorizon = 24_576
)

// Config parameterizes a sampled run. The zero value (Period == 0) means
// exact, unsampled execution.
type Config struct {
	// Period is the systematic sampling period: one detailed window
	// starts every Period instructions. Zero disables sampling.
	Period uint64

	// WindowInsts is the measured instruction count per detailed window.
	WindowInsts uint64

	// WarmupInsts is the detailed warm-up preceding each measurement.
	WarmupInsts uint64

	// Seed selects the phase offset of the first window within the first
	// period, so repeated studies can vary window placement without
	// changing the schedule's density.
	Seed uint64
}

// Enabled reports whether sampling is on.
func (c Config) Enabled() bool { return c.Period > 0 }

// Normalize canonicalizes the configuration: disabled configs collapse to
// the zero value (stray fields must not perturb exact-run cache keys),
// enabled ones get defaults filled in. Cache keys and schedules are built
// from the normalized form only.
func (c Config) Normalize() Config {
	if c.Period == 0 {
		return Config{}
	}
	if c.WindowInsts == 0 {
		c.WindowInsts = DefaultWindowInsts
	}
	if c.WarmupInsts == 0 {
		c.WarmupInsts = DefaultWarmupInsts
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Span is the total detailed-execution length of one window: warm-up,
// measurement, and drain tail.
func (c Config) Span() uint64 { return c.WarmupInsts + c.WindowInsts + TailInsts }

// Validate rejects schedules whose windows cannot fit their period.
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if s := c.Span(); s >= c.Period {
		return fmt.Errorf("sample: window span %d (warmup %d + window %d + tail %d) must be smaller than period %d",
			s, c.WarmupInsts, c.WindowInsts, TailInsts, c.Period)
	}
	return nil
}

// Offset is the seeded phase offset of the first window's start within
// [0, Period-Span]: systematic sampling with a random phase, so the
// schedule cannot alias with a workload's own periodicity the same way
// for every seed.
func (c Config) Offset() uint64 {
	r := splitmix.Rand(c.Seed)
	return r.Next() % (c.Period - c.Span() + 1)
}
