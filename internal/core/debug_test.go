package core

import (
	"testing"

	"flywheel/internal/emu"
	"flywheel/internal/pipe"
	"flywheel/internal/workload"
)

// TestDebugIjpegProgress is a diagnostic harness: it runs a short ijpeg
// window and reports mode/trace behaviour so calibration regressions are
// visible in -v output.
func TestDebugIjpegProgress(t *testing.T) {
	w := workload.MustGet("ijpeg")
	m, err := w.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	stream := emu.NewStream(m, m.Retired+30_000)
	cfg := DefaultConfig()
	cfg.FEBoostPct = 50
	cfg.BEBoostPct = 50
	cfg.MaxCycles = 3_000_000
	c := New(cfg, stream)
	stats, err := c.Run()
	if err != nil {
		t.Logf("run error: %v", err)
		t.Logf("oracle retired=%d fetched=%d dispatched=%d window(base=%d len=%d drained=%v)",
			m.Retired, c.fetcher.Fetched, c.stats.Dispatched, c.window.base, len(c.window.dense), c.window.drained)
		t.Logf("retired=%d cycles=%d mode=%v switches=%d", stats.Retired, c.be.Cycles, c.mode, stats.ModeSwitches)
		t.Logf("built=%d replayed=%d divergences=%d changes=%d broken=%d",
			c.ec.Stats.TracesBuilt, c.ec.Stats.TracesReplayed, stats.Divergences, stats.TraceChanges, stats.BrokenReplays)
		t.Logf("fill=%d res-stall=%d data-stall=%d rename=%d",
			stats.ReplayFillStalls, stats.ReplayStallResource, stats.ReplayStallData, stats.RenameStalls)
		t.Logf("mispredicts=%d sealing=%v draining=%v gate=%d/%d",
			c.fetcher.Mispredicts, c.sealing, c.draining, c.gateSeq, c.gateUntil)
		t.FailNow()
	}
	t.Logf("retired=%d cycles=%d resid=%.2f ipc=%.2f switches=%d built=%d replayed=%d div=%d units=%d avgUnit=%.2f",
		stats.Retired, stats.BECycles, float64(stats.ReplayPS)/float64(stats.TimePS),
		float64(stats.Retired)/float64(stats.BECycles), stats.ModeSwitches,
		stats.EC.TracesBuilt, stats.EC.TracesReplayed, stats.Divergences, stats.ReplayUnits,
		float64(stats.IssuedReplay)/float64(max64(stats.ReplayUnits, 1)))
	t.Logf("replay cycles=%d units=%d fill-stall=%d data-stall=%d res-stall=%d rename-stall=%d changes=%d",
		stats.ReplayCycles, stats.ReplayUnits, stats.ReplayFillStalls, stats.ReplayStallData,
		stats.ReplayStallResource, stats.RenameStalls, stats.TraceChanges)
	t.Logf("L1D miss=%.3f issuedBuild=%d issuedReplay=%d", stats.L1D.MissRate(), stats.IWSelected, stats.IssuedReplay)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func TestDebugDivergenceDetail(t *testing.T) {
	w := workload.MustGet("ijpeg")
	m, err := w.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	stream := emu.NewStream(m, m.Retired+30_000)
	cfg := DefaultConfig()
	cfg.MaxCycles = 1_000_000
	c := New(cfg, stream)
	n := 0
	debugDivergence = func(run *traceRun, s Slot, rec emu.Trace, ok, consumed bool) {
		if n < 8 {
			t.Logf("div: startSeq=%d off=%d slotPC=%#x slotInst=%v | ok=%v consumed=%v recSeq=%d recPC=%#x recInst=%v",
				run.startSeq, s.SeqOffset, s.PC, s.Inst, ok, consumed, rec.Seq, rec.PC, rec.Inst)
		}
		n++
	}
	defer func() { debugDivergence = nil }()
	c.Run()
	t.Logf("total divergences=%d", n)
}

func TestDebugStallSources(t *testing.T) {
	w := workload.MustGet("ijpeg")
	m, err := w.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	stream := emu.NewStream(m, m.Retired+30_000)
	cfg := DefaultConfig()
	cfg.FEBoostPct = 50
	cfg.BEBoostPct = 50
	cfg.MaxCycles = 3_000_000
	c := New(cfg, stream)
	type key struct {
		cls   string
		state pipe.State
	}
	waits := map[key]int64{}
	counts := map[key]int{}
	debugStall = func(c *Core, d *pipe.DynInst, now int64) {
		for _, r := range d.Inst().Sources() {
			p := c.rat.Producer(r)
			if p == nil || p.State == pipe.StateRetired || p.ResultAt <= now {
				continue
			}
			k := key{p.Class().String(), p.State}
			wait := p.ResultAt - now
			if p.ResultAt >= pipe.FarFuture {
				wait = -1
			}
			waits[k] += wait
			counts[k]++
		}
	}
	defer func() { debugStall = nil }()
	c.Run()
	for k, n := range counts {
		t.Logf("stall on %-8s state=%v count=%d avg-wait=%.1f cycles", k.cls, k.state, n, float64(waits[k])/float64(n)/float64(cfg.BEFastPeriodPS()))
	}
}

func TestDebugVortexTraces(t *testing.T) {
	w := workload.MustGet("vortex")
	m, err := w.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	stream := emu.NewStream(m, m.Retired+60_000)
	cfg := DefaultConfig()
	cfg.MaxCycles = 3_000_000
	c := New(cfg, stream)
	stats, err := c.Run()
	if err != nil {
		t.Fatalf("%v", err)
	}
	t.Logf("resid=%.2f built=%d replayed=%d div=%d changes=%d broken=%d units=%d issuedReplay=%d issuedBuild=%d switches=%d",
		float64(stats.ReplayPS)/float64(stats.TimePS), stats.EC.TracesBuilt, stats.EC.TracesReplayed, stats.Divergences,
		stats.TraceChanges, stats.BrokenReplays, stats.ReplayUnits, stats.IssuedReplay, stats.IWSelected, stats.ModeSwitches)
	t.Logf("mispredicts=%d predAcc=%.3f slotsStored=%d slotsReplayed=%d avgTraceLen=%.1f",
		stats.Mispredicts, stats.Pred.Accuracy(), stats.EC.SlotsStored, stats.EC.SlotsReplayed,
		float64(stats.EC.SlotsStored)/float64(max64(stats.EC.TracesBuilt, 1)))
}
