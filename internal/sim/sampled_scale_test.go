package sim

import (
	"math"
	"testing"
	"time"

	"flywheel/internal/cacti"
	"flywheel/internal/sample"
)

// TestSampledScale pins the sampled tier's headline trade at production
// scale: across the accelerated cores and the full workload suite at 300k
// instructions, the default schedule must cut the detailed-simulation work
// by at least 5x per cell while the suite-mean estimate error stays within
// 2% IPC and 3% energy of the exact runs.
//
// The 5x claim is asserted on the deterministic detailed-work ratio
// (instructions simulated in detail versus stream length) — wall-clock in
// a shared CI container is too noisy to gate tightly, so elapsed time only
// has to clear a generous 3x floor per cell, each side timed as the best of
// three interleaved repeats; the measured speedups are logged for the
// record.
func TestSampledScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("scale measurement runs without -short/-race")
	}
	const insts = 300_000
	type cell struct {
		arch Arch
		wl   string
	}
	var cells []cell
	for _, arch := range []Arch{ArchFlywheel, ArchRegAlloc} {
		for _, wl := range []string{"ijpeg", "gcc", "vpr"} {
			cells = append(cells, cell{arch, wl})
		}
	}
	var sumIPCErr, sumEErr float64
	for _, c := range cells {
		cfg := RunConfig{
			Workload: c.wl, Arch: c.arch, Node: cacti.Node130,
			FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: insts,
		}
		if _, err := Run(cfg); err != nil { // prime snapshot + trace caches
			t.Fatal(err)
		}
		scfg := cfg
		// The shipped default schedule — the one -tier sampled runs.
		scfg.Sampling = Sampling{Period: sample.DefaultPeriod}
		// Each side's time is the best of three interleaved repeats, so a
		// burst of contention from other test processes cannot land on one
		// side only.
		var exact, sampled Result
		var exactDur, sampledDur time.Duration
		for rep := 0; rep < 3; rep++ {
			var d time.Duration
			var err error
			if exact, d, err = timedRun(cfg); err != nil {
				t.Fatal(err)
			}
			if rep == 0 || d < exactDur {
				exactDur = d
			}
			if sampled, d, err = timedRun(scfg); err != nil {
				t.Fatal(err)
			}
			if rep == 0 || d < sampledDur {
				sampledDur = d
			}
		}

		st := sampled.Sampled
		if st == nil || st.Windows < 3 {
			t.Fatalf("%v/%s: implausible sampled stats %+v", c.arch, c.wl, st)
		}
		// The deterministic 5x claim: at most 1/5 of the stream ran in
		// detailed simulation (bootstrap, warm-ups and windows included).
		detailedFrac := 1 - float64(st.SkippedInsts)/float64(st.TotalInsts)
		if detailedFrac > 0.2 {
			t.Errorf("%v/%s: detailed fraction %.3f exceeds 1/5", c.arch, c.wl, detailedFrac)
		}
		speedup := float64(exactDur) / float64(sampledDur)
		if speedup < 3 {
			t.Errorf("%v/%s: wall-clock speedup %.1fx below the 3x noise floor (exact %v, sampled %v)",
				c.arch, c.wl, speedup, exactDur, sampledDur)
		}
		ipcErr := 100 * (sampled.IPC - exact.IPC) / exact.IPC
		eErr := 100 * (sampled.EnergyPJ - exact.EnergyPJ) / exact.EnergyPJ
		sumIPCErr += math.Abs(ipcErr)
		sumEErr += math.Abs(eErr)
		t.Logf("%v/%-5s: %.1fx wall-clock (%5.1fms -> %5.1fms), detailed %4.1f%%, IPC err %+5.2f%%, energy err %+5.2f%%, %d windows",
			c.arch, c.wl, speedup,
			float64(exactDur.Microseconds())/1e3, float64(sampledDur.Microseconds())/1e3,
			100*detailedFrac, ipcErr, eErr, st.Windows)
	}
	n := float64(len(cells))
	if mean := sumIPCErr / n; mean > 2 {
		t.Errorf("suite-mean |IPC error| %.2f%% exceeds 2%%", mean)
	}
	if mean := sumEErr / n; mean > 3 {
		t.Errorf("suite-mean |energy error| %.2f%% exceeds 3%%", mean)
	}
}

// timedRun runs cfg and reports how long it took.
func timedRun(cfg RunConfig) (Result, time.Duration, error) {
	start := time.Now()
	res, err := Run(cfg)
	return res, time.Since(start), err
}
