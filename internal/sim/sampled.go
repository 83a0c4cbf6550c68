package sim

import (
	"fmt"

	"flywheel/internal/pipe"
	"flywheel/internal/power"
	"flywheel/internal/sample"
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

// sampleLoop drives the alternation and aggregates the estimates.
func sampleLoop(cfg RunConfig, stream pipe.InstSource, gate *sample.Gate, m *machine, tech power.TechParams) (Result, error) {
	sp := cfg.Sampling
	span := sp.Span()
	pos := uint64(0)         // stream position: records delivered or fast-forwarded
	detailed := uint64(0)    // records run through the timing core
	nextStart := sp.Offset() // stream position where the next detailed span begins
	var acc sample.Accumulator
	var total counters // summed per-window measurement deltas
	var sumEnergyPJ, sumLeakPJ float64

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
	if err := m.run(); err != nil {
		return Result{}, err
	}
	delivered := gate.TakeDelivered()
	pos += delivered
	detailed += delivered
	if delivered < boot {
		return Result{}, fmt.Errorf("sampling: stream ended inside the %d-instruction bootstrap (%d delivered)", boot, delivered)
	}
	// Windows the bootstrap already covered are dropped from the schedule
	// (their span was simulated, but mid-bootstrap snapshots were not taken).
	for nextStart < pos {
		nextStart += sp.Period
	}

	streamDry := false
	for !streamDry {
		if nextStart > pos {
			gap := nextStart - pos
			n := sample.FastForward(stream, m.warmer, gap)
			pos += n
			if n < gap {
				break // stream ended during the fast-forward
			}
		}
		if !m.resume(sp.WarmupInsts) {
			break // the program retired HALT inside an earlier window
		}
		start := m.counters().Act.Retires
		var mk [2]counters
		var got [2]bool
		m.marks(
			[]uint64{start + sp.WarmupInsts, start + sp.WarmupInsts + sp.WindowInsts},
			func(i int, c counters) { mk[i], got[i] = c, true },
		)
		gate.Open(span)
		if err := m.run(); err != nil {
			return Result{}, err
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
		d := diff(mk[1], mk[0])
		// The power model is linear in the activity record, so the energy
		// of a window is exactly the energy of its activity delta.
		rep := power.Compute(d.Act, m.shape, tech)
		acc.Observe(sample.Obs{Insts: d.Act.Retires, Cycles: d.Act.BECycles, TimePS: d.Act.TimePS, EnergyPJ: rep.TotalPJ})
		sumEnergyPJ += rep.TotalPJ
		sumLeakPJ += rep.TotalPJ * rep.LeakageFrac
		total = sum(total, d)
	}
	if acc.Windows() == 0 {
		return Result{}, fmt.Errorf("sampling produced no complete windows (period %d, window span %d, stream ended at %d instructions)",
			sp.Period, span, pos)
	}

	est := acc.Estimate()
	n := float64(pos)
	scale := n / float64(est.MeasuredInsts)
	// Ratios (accuracy, coverage, hit rates, residency) come straight from
	// the summed measurement-window counters; time, cycles and energy are
	// the per-instruction estimates scaled to the whole stream, and volume
	// counters extrapolate from the measured fraction.
	res := resultFrom(cfg, total)
	res.Retired = pos
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
		TotalInsts:    pos,
		SkippedInsts:  pos - detailed,
		IPCRelCI95:    sample.RelCI95(est.CPI, est.CPIErr),
		TimeRelCI95:   sample.RelCI95(est.TPI, est.TPIErr),
		EnergyRelCI95: sample.RelCI95(est.EPI, est.EPIErr),
	}
	return res, nil
}
