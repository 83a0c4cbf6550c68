package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"flywheel/internal/cacti"
	"flywheel/internal/emu"
	"flywheel/internal/trace"
	"flywheel/internal/workload"
	"flywheel/internal/workload/synth"
)

// The trace cache's whole claim is "replay is indistinguishable from live
// execution". These tests pin it at both layers: the record stream itself
// (byte-identical emu.Trace records, order and early-halt behavior) and
// whole simulation results across every architecture with the cache on
// versus off.

// diffWorkloads returns a paper workload and two seeded synthetic ones
// (distinct characteristics: branchy integer and strided FP).
func diffWorkloads(t *testing.T) []*workload.Workload {
	t.Helper()
	out := []*workload.Workload{workload.MustGet("gcc")}
	for _, p := range []synth.Profile{
		{ILP: 1, BranchEntropy: 0.9, MemFootprintKB: 16, Seed: 7},
		{ILP: 5, StrideFrac: 0.9, FPMix: 0.7, MemFootprintKB: 64, Seed: 11},
	} {
		w, err := synth.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.Register(w); err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

// liveTrace collects the live post-warm-up stream of a workload.
func liveTrace(t *testing.T, w *workload.Workload, limit uint64) []emu.Trace {
	t.Helper()
	m, err := w.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	abs := uint64(0)
	if limit > 0 {
		abs = m.Retired + limit
	}
	s := emu.NewStream(m, abs)
	var out []emu.Trace
	buf := make([]emu.Trace, 37)
	for {
		n := s.Fill(buf)
		if n == 0 {
			break
		}
		out = append(out, buf[:n]...)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplayByteIdenticalToLiveStream records each workload once and
// replays it, requiring the replayed records to equal the live stream
// exactly — same records, same order, same end.
func TestReplayByteIdenticalToLiveStream(t *testing.T) {
	const budget = 4000
	for _, w := range diffWorkloads(t) {
		live := liveTrace(t, w, budget)

		cache := trace.NewCache(trace.Policy{})
		m, err := w.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		g := cache.Acquire(w.Name, m.Retired, budget, nil)
		if g.Record == nil {
			t.Fatalf("%s: first acquisition must record", w.Name)
		}
		rec := trace.NewRecorder(g.Record, emu.NewStream(m, m.Retired+budget))
		var recorded []emu.Trace
		buf := make([]emu.Trace, 41)
		for {
			n := rec.Fill(buf)
			if n == 0 {
				break
			}
			recorded = append(recorded, buf[:n]...)
		}
		cache.FinishRecorder(rec, nil)
		if !reflect.DeepEqual(recorded, live) {
			t.Fatalf("%s: recorder pass-through altered the live stream", w.Name)
		}

		g2 := cache.Acquire(w.Name, g.Record.StartSeq(), budget, nil)
		if g2.Replay == nil {
			t.Fatalf("%s: second acquisition must replay", w.Name)
		}
		var replayed []emu.Trace
		for {
			n := g2.Replay.Fill(buf)
			if n == 0 {
				break
			}
			replayed = append(replayed, buf[:n]...)
		}
		if err := g2.Replay.Err(); err != nil {
			t.Fatal(err)
		}
		if len(replayed) != len(live) {
			t.Fatalf("%s: replay produced %d records, live %d", w.Name, len(replayed), len(live))
		}
		for i := range replayed {
			if replayed[i] != live[i] {
				t.Fatalf("%s: record %d differs:\n live   %+v\n replay %+v", w.Name, i, live[i], replayed[i])
			}
		}
	}
}

// TestReplayReproducesEarlyHalt replays a run-to-completion recording and
// checks both sides end at the same halt.
func TestReplayReproducesEarlyHalt(t *testing.T) {
	w, err := synth.Build(synth.Profile{ILP: 2, MemFootprintKB: 8, Seed: 3, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Register(w); err != nil {
		t.Fatal(err)
	}
	live := liveTrace(t, w, 0) // to halt
	if len(live) == 0 {
		t.Skip("workload does not halt under test budget")
	}
	cache := trace.NewCache(trace.Policy{})
	m, _ := w.NewMachine()
	g := cache.Acquire(w.Name, m.Retired, 0, nil)
	rec := trace.NewRecorder(g.Record, emu.NewStream(m, 0))
	buf := make([]emu.Trace, 64)
	for rec.Fill(buf) > 0 {
	}
	cache.FinishRecorder(rec, nil)
	if done, halted := g.Record.Complete(); !done || !halted {
		t.Fatalf("recording done=%v halted=%v, want complete halt", done, halted)
	}
	g2 := cache.Acquire(w.Name, g.Record.StartSeq(), 0, nil)
	if g2.Replay == nil {
		t.Fatal("halted recording must serve run-to-completion replays")
	}
	n := 0
	for {
		k := g2.Replay.Fill(buf)
		if k == 0 {
			break
		}
		n += k
	}
	if n != len(live) {
		t.Fatalf("replay delivered %d records to halt, live %d", n, len(live))
	}
}

// TestRunByteIdenticalWithTraceCacheOnAndOff runs every architecture over
// the differential workloads twice — trace cache enabled and disabled —
// and requires byte-identical results (including full per-core stats).
func TestRunByteIdenticalWithTraceCacheOnAndOff(t *testing.T) {
	workloads := diffWorkloads(t)
	prevPolicy := TraceCachePolicy()
	defer func() {
		SetTraceCachePolicy(prevPolicy)
		ResetTraceCache()
	}()

	type key struct {
		wl   string
		arch Arch
	}
	run := func(disabled bool) map[key]Result {
		SetTraceCachePolicy(trace.Policy{Disabled: disabled})
		ResetTraceCache()
		out := map[key]Result{}
		for _, w := range workloads {
			for _, arch := range []Arch{ArchBaseline, ArchFlywheel, ArchRegAlloc} {
				// Two budgets so prefix replay is exercised with the cache on.
				for _, budget := range []uint64{3000, 1200} {
					res, err := Run(RunConfig{
						Workload: w.Name, Arch: arch, Node: cacti.Node130,
						FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: budget,
					})
					if err != nil {
						t.Fatalf("%s/%s: %v", w.Name, arch, err)
					}
					if budget == 3000 {
						out[key{w.Name, arch}] = res
					}
				}
			}
		}
		return out
	}

	on := run(false)
	stats := TraceCacheStats()
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("cache-on pass exercised no record/replay traffic: %+v", stats)
	}
	off := run(true)
	offStats := TraceCacheStats()
	if offStats.Bypasses == 0 || offStats.Misses != 0 {
		t.Fatalf("cache-off pass must bypass everything: %+v", offStats)
	}
	for k, a := range on {
		b := off[k]
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s/%s: results differ between trace cache on and off", k.wl, k.arch)
		}
	}
}

// TestOverlappingRunBypassesInFlightRecording: a run that starts while its
// workload's recording is in flight emulates live rather than replay
// behind the recorder, its exact and sampled results equal a fresh
// cache's, and once the recording completes later runs replay it. The
// test checks the source's type rather than reading it, so a source that
// waited on the recorder fails the test instead of hanging it.
func TestOverlappingRunBypassesInFlightRecording(t *testing.T) {
	prev := TraceCachePolicy()
	t.Cleanup(func() {
		SetTraceCachePolicy(prev)
		ResetTraceCache()
	})
	SetTraceCachePolicy(trace.Policy{})

	const budget = 130_000
	var fresh [][]byte
	// On a fresh cache the sampled run records and the exact run replays a
	// prefix. Gaps of about 37k instructions exceed sample.WarmHorizon, so
	// the fast-forwards pass over records (Skip on a replay).
	cfgs := []RunConfig{
		{Workload: "vpr", Arch: ArchFlywheel, Node: cacti.Node130, MaxInstructions: budget,
			Sampling: Sampling{Period: 40_000, WindowInsts: 2_000, WarmupInsts: 500}},
		{Workload: "vpr", Arch: ArchBaseline, Node: cacti.Node130, MaxInstructions: 20_000},
	}
	check := func(row string, got [][]byte) {
		t.Helper()
		for i := range got {
			if !bytes.Equal(got[i], fresh[i]) {
				t.Errorf("%s: %s run differs from a fresh cache's:\n got  %s\n want %s", row, cfgs[i].Arch, got[i], fresh[i])
			}
		}
	}
	runAll := func() [][]byte {
		t.Helper()
		out := make([][]byte, len(cfgs))
		for i, cfg := range cfgs {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out[i], err = json.Marshal(res); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	ResetTraceCache()
	fresh = runAll()
	if s := TraceCacheStats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("fresh cache: %s, want 1 replay, 1 recording", s)
	}

	ResetTraceCache()
	w := workload.MustGet("vpr")
	snap, err := w.WarmState()
	if err != nil {
		t.Fatal(err)
	}
	g := traceCache.Acquire(w.Name, snap.Retired(), budget, nil)
	if g.Record == nil {
		t.Fatal("first acquisition must record")
	}
	src, finish := acquireSource(w, snap, budget)
	finish(nil)
	if _, ok := src.(*emu.Stream); !ok {
		t.Fatalf("acquisition during an in-flight recording got a %T, want a live *emu.Stream", src)
	}
	check("overlapping the recording", runAll())
	if s := TraceCacheStats(); s.Misses != 1 || s.Hits != 0 || s.Bypasses != 3 {
		t.Errorf("overlapping runs: %s, want 0 replays, 1 recording, 3 bypasses", s)
	}

	rec := trace.NewRecorder(g.Record, emu.NewStream(snap.NewMachine(), snap.Retired()+budget))
	buf := make([]emu.Trace, 256)
	for rec.Fill(buf) > 0 {
	}
	traceCache.FinishRecorder(rec, nil)
	src, finish = acquireSource(w, snap, budget)
	finish(nil)
	if _, ok := src.(*trace.Reader); !ok {
		t.Fatalf("acquisition after the recording completed got a %T, want a *trace.Reader", src)
	}
	check("after the recording completed", runAll())
	if s := TraceCacheStats(); s.Misses != 1 || s.Hits != 3 {
		t.Errorf("after the recording completed: %s, want 3 replays, 1 recording", s)
	}
}
