package sim

import (
	"fmt"

	"flywheel/internal/pipe"
	"flywheel/internal/power"
	"flywheel/internal/sample"
	"flywheel/internal/stats"
)

// Sampling configures sampled execution (see package sample): the zero
// value runs exact, a non-zero Period alternates fast-forwarded functional
// warming with detailed windows and reports confidence intervals across
// the windows.
type Sampling = sample.Config

// SampledStats reports how a sampled run covered the stream and how much
// to trust its estimates. The relative CI95 fields are 95% confidence
// half-intervals relative to the mean (0.02 means "±2%").
type SampledStats struct {
	Windows       int     `json:"windows"`
	MeasuredInsts uint64  `json:"measured_insts"`
	TotalInsts    uint64  `json:"total_insts"`
	SkippedInsts  uint64  `json:"skipped_insts"` // fast-forwarded, not simulated in detail
	IPCRelCI95    float64 `json:"ipc_rel_ci95"`
	TimeRelCI95   float64 `json:"time_rel_ci95"`
	EnergyRelCI95 float64 `json:"energy_rel_ci95"`
}

// sampleLoop drives the alternation and records each complete window's
// measurement delta, the final stream position and the detailed count
// into t.
func sampleLoop(sp Sampling, stream pipe.InstSource, gate *sample.Gate, m machine, t *Timing) error {
	span := sp.Span()
	pos := uint64(0)         // stream position: records delivered or fast-forwarded
	detailed := uint64(0)    // records run through the timing core
	nextStart := sp.Offset() // stream position where the next detailed span begins

	// Bootstrap: run the first sample.BootstrapInsts of the stream in
	// detail, unmeasured, before the periodic schedule starts. The
	// Execution Cache cannot be functionally warmed — its traces only
	// exist because detailed execution built them — and the exact run
	// builds its hot traces exactly once, from a cold pipeline, right at
	// the stream origin. Replaying that genesis gives the sampled run the
	// same traces (same boundaries, same issue-unit structure) instead of
	// variants built mid-stream under different pipeline conditions.
	boot := uint64(sample.BootstrapInsts)
	gate.Open(boot)
	if _, err := m.Run(); err != nil {
		return err
	}
	delivered := gate.TakeDelivered()
	pos += delivered
	detailed += delivered
	if delivered < boot {
		return fmt.Errorf("sampling: stream ended inside the %d-instruction bootstrap (%d delivered)", boot, delivered)
	}
	// Windows the bootstrap already covered are dropped from the schedule
	// (their span was simulated, but mid-bootstrap snapshots were not taken).
	for nextStart < pos {
		nextStart += sp.Period
	}

	warmer := m.Warmer()
	streamDry := false
	for !streamDry {
		if nextStart > pos {
			gap := nextStart - pos
			n := sample.FastForward(stream, warmer, gap)
			pos += n
			if n < gap {
				break // stream ended during the fast-forward
			}
		}
		if !m.Resume(sp.WarmupInsts) {
			break // the program retired HALT inside an earlier window
		}
		start := m.Counters().Retired
		var mk [2]pipe.Counters
		var got [2]bool
		m.SetMarks(
			[]uint64{start + sp.WarmupInsts, start + sp.WarmupInsts + sp.WindowInsts},
			func(i int, c pipe.Counters) { mk[i], got[i] = c, true },
		)
		gate.Open(span)
		if _, err := m.Run(); err != nil {
			return err
		}
		delivered := gate.TakeDelivered()
		pos += delivered
		detailed += delivered
		if delivered < span {
			streamDry = true // program ended inside this window
		}
		nextStart += sp.Period
		if !got[0] || !got[1] {
			continue // truncated before the measurement completed: discard
		}
		t.windows = append(t.windows, stats.Diff(mk[1], mk[0]))
	}
	if len(t.windows) == 0 {
		return fmt.Errorf("sampling produced no complete windows (period %d, window span %d, stream ended at %d instructions)",
			sp.Period, span, pos)
	}
	t.pos, t.detailed = pos, detailed
	return nil
}

// estimate prices a sampled record at cfg's node, whose clock plan has a
// grain of grain picoseconds: each window's energy, feeding the estimator
// in stream order, then the estimates extrapolated to the whole stream.
func (t Timing) estimate(cfg RunConfig, grain int64) (Result, error) {
	tech, err := power.Tech(cfg.Node)
	if err != nil {
		return Result{}, err
	}
	var acc sample.Accumulator
	var total pipe.Counters // summed per-window measurement deltas
	var sumEnergyPJ, sumLeakPJ float64
	for _, w := range t.windows {
		d := t.rescaled(w, grain)
		// The power model is linear in the activity record, so the energy
		// of a window is exactly the energy of its activity delta.
		rep := power.Compute(activity(d), t.shape, tech)
		acc.Observe(sample.Obs{Insts: d.Retired, Cycles: d.BECycles, TimePS: d.TimePS, EnergyPJ: rep.TotalPJ})
		sumEnergyPJ += rep.TotalPJ
		sumLeakPJ += rep.TotalPJ * rep.LeakageFrac
		total = stats.Sum(total, d)
	}

	est := acc.Estimate()
	n := float64(t.pos)
	scale := n / float64(est.MeasuredInsts)
	// Ratios (accuracy, coverage, hit rates, residency) come straight from
	// the summed measurement-window counters; time, cycles and energy are
	// the per-instruction estimates scaled to the whole stream, and volume
	// counters extrapolate from the measured fraction.
	res := resultFrom(cfg, total)
	res.Retired = t.pos
	res.Cycles = uint64(est.CPI*n + 0.5)
	res.TimePS = int64(est.TPI*n + 0.5)
	if est.CPI > 0 {
		res.IPC = 1 / est.CPI
	}
	res.EnergyPJ = est.EPI * n
	if res.TimePS > 0 {
		res.PowerW = res.EnergyPJ / float64(res.TimePS) // pJ/ps = W
	}
	if sumEnergyPJ > 0 {
		res.LeakageFrac = sumLeakPJ / sumEnergyPJ
	}
	for _, v := range []*uint64{&res.Mispredicts, &res.Divergences, &res.CondBranches,
		&res.PrefetchIssued, &res.PrefetchUseful, &res.PrefetchLate} {
		*v = uint64(float64(*v)*scale + 0.5)
	}
	res.Sampled = &SampledStats{
		Windows:       est.Windows,
		MeasuredInsts: est.MeasuredInsts,
		TotalInsts:    t.pos,
		SkippedInsts:  t.pos - t.detailed,
		IPCRelCI95:    sample.RelCI95(est.CPI, est.CPIErr),
		TimeRelCI95:   sample.RelCI95(est.TPI, est.TPIErr),
		EnergyRelCI95: sample.RelCI95(est.EPI, est.EPIErr),
	}
	return res, nil
}
