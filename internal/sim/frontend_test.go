package sim

import (
	"testing"

	"flywheel/internal/branch"
	"flywheel/internal/mem"
	"flywheel/internal/workload"
	"flywheel/internal/workload/synth"
)

func registerStress(t *testing.T) {
	t.Helper()
	for _, p := range synth.StressProfiles(7) {
		w, err := synth.Build(p)
		if err != nil {
			t.Fatalf("build %s: %v", p.Name(), err)
		}
		if err := workload.Register(w); err != nil {
			t.Fatalf("register %s: %v", p.Name(), err)
		}
	}
}

func runFrontend(t *testing.T, wl, pred, pf string) Result {
	t.Helper()
	r, err := Run(RunConfig{
		Workload:        wl,
		Arch:            ArchBaseline,
		MaxInstructions: 400_000,
		Predictor:       pred,
		Prefetcher:      pf,
	})
	if err != nil {
		t.Fatalf("run %s pred=%s pf=%s: %v", wl, pred, pf, err)
	}
	return r
}

// TestTAGEBeatsGShareOnPeriodicBranches is the predictor's reason to exist:
// the high-entropy-branch stress profile flips direction every 16 bodies —
// random noise to a 12-bit global history, a learnable position to TAGE's
// geometric histories. The win must hold with the delta prefetcher on too.
func TestTAGEBeatsGShareOnPeriodicBranches(t *testing.T) {
	registerStress(t)
	wl := synth.HighEntropyBranch(7).Name()
	for _, pf := range []string{mem.PFNone, mem.PFDelta} {
		gs := runFrontend(t, wl, branch.DirGShare, pf)
		tg := runFrontend(t, wl, branch.DirTAGE, pf)
		if gs.CondBranches == 0 || tg.CondBranches == 0 {
			t.Fatalf("pf=%s: no conditional branches measured: gshare=%d tage=%d", pf, gs.CondBranches, tg.CondBranches)
		}
		if tg.BranchAccuracy <= gs.BranchAccuracy {
			t.Fatalf("pf=%s: TAGE accuracy %.4f not above gshare %.4f on %s",
				pf, tg.BranchAccuracy, gs.BranchAccuracy, wl)
		}
		t.Logf("pf=%s accuracy: gshare %.4f, tage %.4f (mispredicts %d -> %d of %d)",
			pf, gs.BranchAccuracy, tg.BranchAccuracy, gs.Mispredicts, tg.Mispredicts, tg.CondBranches)
	}
}

// TestDeltaPrefetchLiftsStridedProfile is the prefetcher's reason to exist:
// the long-stride profile opens a fresh line on every access at a constant
// per-PC delta, so the delta prefetcher should convert demand L2 misses
// into hits and cut the average demand latency — without slowing the run.
func TestDeltaPrefetchLiftsStridedProfile(t *testing.T) {
	registerStress(t)
	wl := synth.LongStrideFP(7).Name()
	off := runFrontend(t, wl, branch.DirGShare, mem.PFNone)
	on := runFrontend(t, wl, branch.DirGShare, mem.PFDelta)
	if on.PrefetchIssued == 0 {
		t.Fatalf("delta prefetcher issued nothing on %s", wl)
	}
	if on.AvgDataCycles >= off.AvgDataCycles {
		t.Fatalf("prefetching did not cut demand latency: %.3f cycles with delta vs %.3f without",
			on.AvgDataCycles, off.AvgDataCycles)
	}
	if on.DemandL2HitRate <= off.DemandL2HitRate {
		t.Fatalf("prefetching did not lift demand L2 hit rate: %.4f with delta vs %.4f without",
			on.DemandL2HitRate, off.DemandL2HitRate)
	}
	if on.TimePS > off.TimePS {
		t.Fatalf("prefetching slowed the run: %d ps with delta vs %d without", on.TimePS, off.TimePS)
	}
	t.Logf("avg data cycles %.3f -> %.3f, L2 hit rate %.4f -> %.4f, time %d -> %d ps, accuracy %.3f coverage %.3f",
		off.AvgDataCycles, on.AvgDataCycles, off.DemandL2HitRate, on.DemandL2HitRate,
		off.TimePS, on.TimePS, on.PrefetchAccuracy, on.PrefetchCoverage)
}

// TestDeltaPrefetchInertOnPointerChase: dependent loads have no learnable
// stride, so the prefetcher must not tank accuracy-insensitive metrics —
// the chase profile is the negative control.
func TestDeltaPrefetchInertOnPointerChase(t *testing.T) {
	registerStress(t)
	wl := synth.PointerChase(7).Name()
	off := runFrontend(t, wl, branch.DirGShare, mem.PFNone)
	on := runFrontend(t, wl, branch.DirGShare, mem.PFDelta)
	// A pathological prefetcher would flood the L2 with useless lines and
	// evict the demand working set; allow noise but not a collapse.
	if off.AvgDataCycles > 0 && on.AvgDataCycles > off.AvgDataCycles*1.10 {
		t.Fatalf("prefetching hurt the chase profile: %.3f cycles with delta vs %.3f without",
			on.AvgDataCycles, off.AvgDataCycles)
	}
	t.Logf("chase: avg data cycles %.3f -> %.3f, issued %d useful %d",
		off.AvgDataCycles, on.AvgDataCycles, on.PrefetchIssued, on.PrefetchUseful)
}
