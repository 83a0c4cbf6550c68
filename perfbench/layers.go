package main

import (
	"fmt"
	"runtime"
	"time"

	"flywheel/internal/branch"
	"flywheel/internal/cacti"
	"flywheel/internal/emu"
	"flywheel/internal/isa"
	"flywheel/internal/mem"
	"flywheel/internal/pipe"
	"flywheel/internal/sample"
	"flywheel/internal/sim"
	"flywheel/internal/trace"
	"flywheel/internal/workload"
)

// stream is one dynamic instruction stream a workload replays: a
// registered workload from its warm point, bounded by a budget.
type stream struct {
	name   string
	budget uint64
}

// layerReps is how many times each layer replays the workload's streams;
// the reported cost is the median repetition.
const layerReps = 3

// recorded is one stream captured once, through the trace package's own
// recorder, for the layers to replay.
type recorded struct {
	stream
	cache    *trace.Cache
	startSeq uint64
	recs     []emu.Trace
}

// record runs the functional emulator over the stream from the workload's
// warm point, taping it into a private trace cache.
func record(s stream) (*recorded, error) {
	w, err := workload.Get(s.name)
	if err != nil {
		return nil, err
	}
	m, err := w.NewMachine()
	if err != nil {
		return nil, err
	}
	r := &recorded{stream: s, cache: trace.NewCache(trace.Policy{}), startSeq: m.Retired}
	g := r.cache.Acquire(s.name, r.startSeq, s.budget, nil)
	if g.Record == nil {
		return nil, fmt.Errorf("record %s: trace cache did not grant a recording", s.name)
	}
	rec := trace.NewRecorder(g.Record, emu.NewStream(m, m.Retired+s.budget))
	r.recs = make([]emu.Trace, 0, s.budget)
	var buf [256]emu.Trace
	for {
		n := rec.Fill(buf[:])
		if n == 0 {
			break
		}
		r.recs = append(r.recs, buf[:n]...)
	}
	r.cache.FinishRecorder(rec, rec.Err())
	if err := rec.Err(); err != nil {
		return nil, fmt.Errorf("record %s: %w", s.name, err)
	}
	return r, nil
}

// reader returns a fresh replay cursor over the recording.
func (r *recorded) reader() (*trace.Reader, error) {
	g := r.cache.Acquire(r.name, r.startSeq, r.budget, nil)
	if g.Replay == nil {
		return nil, fmt.Errorf("replay %s: recording not usable", r.name)
	}
	return g.Replay, nil
}

// timeLayers times every simulation layer on the workload's streams,
// single-threaded, through each package's public entry points.
func timeLayers(streams []stream, tr *tracer) ([]metric, error) {
	root := tr.start("layers", span{}, 0)
	defer root.finish()
	var recs []*recorded
	var insts uint64
	for _, s := range streams {
		r, err := record(s)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
		insts += uint64(len(r.recs))
	}
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	// timed runs body layerReps times under a span and returns the median
	// duration of one repetition.
	timed := func(name string, body func() error) (time.Duration, error) {
		var ds []float64
		for k := 0; k < layerReps; k++ {
			sp := tr.start(name, root, 0)
			start := time.Now()
			err := body()
			d := time.Since(start)
			sp.finish()
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			ds = append(ds, float64(d))
		}
		return time.Duration(median(ds)), nil
	}
	perInst := func(d time.Duration, n uint64) float64 { return float64(d.Nanoseconds()) / float64(n) }

	// emu: the functional emulator stepping each stream from a warm clone.
	d, err := timed("emu.Stream.Fill", func() error {
		for _, r := range recs {
			m, err := workload.MustGet(r.name).NewMachine()
			if err != nil {
				return err
			}
			st := emu.NewStream(m, m.Retired+r.budget)
			var buf [256]emu.Trace
			for st.Fill(buf[:]) > 0 {
			}
			if err := st.Err(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	add("emu.ns_per_inst", perInst(d, insts), "ns")

	// trace: decode (Fill) and encoded size; seek is timed with the
	// sampled tier (timeSampled).
	d, err = timed("trace.Reader.Fill", func() error {
		for _, r := range recs {
			rd, err := r.reader()
			if err != nil {
				return err
			}
			var buf [256]emu.Trace
			for rd.Fill(buf[:]) > 0 {
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	add("trace.fill_ns_per_inst", perInst(d, insts), "ns")
	var bytes int64
	for _, r := range recs {
		bytes += r.cache.Stats().ResidentBytes
	}
	add("trace.bytes_per_inst", float64(bytes)/float64(insts), "B")

	// branch: each predictor over the streams' control instructions.
	for _, dir := range []string{branch.DirGShare, branch.DirTAGE} {
		var st branch.Stats
		var n uint64
		d, err := timed("branch.Predictor."+dir, func() error {
			cfg := branch.DefaultConfig()
			cfg.Direction = dir
			st, n = branch.Stats{}, 0
			for _, r := range recs {
				p := branch.New(cfg)
				for i := range r.recs {
					rec := &r.recs[i]
					if !rec.Inst.IsControl() {
						continue
					}
					// Predict, score and train the way the fetch stage does.
					pr := p.Predict(rec.PC, rec.Inst)
					wrong := pr.Taken != rec.Taken || (rec.Taken && (!pr.TargetKnown || pr.Target != rec.NextPC))
					p.RecordOutcome(rec.Inst, wrong)
					p.Update(rec.PC, rec.Inst, rec.Taken, rec.NextPC)
					n++
				}
				st.CondBranches += p.Stats.CondBranches
				st.CondWrong += p.Stats.CondWrong
				st.IndirectJumps += p.Stats.IndirectJumps
				st.IndirectWrong += p.Stats.IndirectWrong
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		add("branch.ns_per_branch."+dir, perInst(d, n), "ns")
		add("branch.accuracy."+dir, st.Accuracy(), "fraction")
	}

	// mem: the hierarchy over the streams' fetch lines and data accesses,
	// without and with the delta prefetcher, from cold caches.
	period := cacti.BaselinePeriodPS(cacti.Node130)
	for _, pf := range []string{mem.PFNone, mem.PFDelta} {
		var l1d mem.CacheStats
		var dm mem.DemandStats
		var ps mem.PrefetchStats
		var n uint64
		d, err := timed("mem.Hierarchy.Access."+pf, func() error {
			l1d, dm, ps, n = mem.CacheStats{}, mem.DemandStats{}, mem.PrefetchStats{}, 0
			for _, r := range recs {
				cfg := mem.DefaultHierarchyConfig(period)
				cfg.Prefetch = mem.DefaultPrefetchConfig(pf)
				h := mem.NewHierarchy(cfg)
				lineMask := ^uint64(cfg.L1I.LineBytes - 1)
				last := ^uint64(0)
				for i := range r.recs {
					rec := &r.recs[i]
					if line := rec.PC & lineMask; line != last {
						h.Access(mem.AccessFetch, rec.PC, rec.PC, period)
						last = line
						n++
					}
					if rec.Inst.IsMem() {
						kind := mem.AccessLoad
						if rec.Inst.Class() == isa.ClassStore {
							kind = mem.AccessStore
						}
						h.Access(kind, rec.PC, rec.Addr, period)
						n++
					}
				}
				addCache(&l1d, h.L1D.Stats)
				addDemand(&dm, h.DemandStats())
				addPrefetch(&ps, h.PrefetchStats())
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		add("mem.ns_per_access."+pf, perInst(d, n), "ns")
		if pf == mem.PFNone {
			add("mem.l1d_miss_ratio", l1d.MissRate(), "fraction")
			add("mem.l2_hit_ratio", dm.L2HitRate(), "fraction")
		} else {
			add("mem.pf_accuracy", ps.Accuracy(), "fraction")
			add("mem.pf_coverage", ps.Coverage(), "fraction")
		}
	}

	// pipe: the issue window scheduling each stream's register dependences,
	// and functional warming of a predictor and hierarchy.
	d, err = timed("pipe.IssueWindow", func() error {
		for _, r := range recs {
			issueWindowReplay(r.recs, period)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	add("pipe.iw_ns_per_inst", perInst(d, insts), "ns")
	d, err = timed("pipe.Warmer.Observe", func() error {
		for _, r := range recs {
			w := newWarmer(period)
			for i := range r.recs {
				w.Observe(r.recs[i])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	add("pipe.warm_ns_per_inst", perInst(d, insts), "ns")

	sims, err := timeSim(streams, tr, root)
	if err != nil {
		return nil, err
	}
	out = append(out, sims...)
	sampled, err := timeSampled(tr, root)
	if err != nil {
		return nil, err
	}
	return append(out, sampled...), nil
}

// timeSampled times the sampled tier's layers — chunk-indexed seek,
// fast-forward and sampled sim.Run — on the stress streams with the
// default schedule, on every workload: the stress grid is the only place
// the sampled tier runs, and the other workloads' streams are too short
// for its schedule.
func timeSampled(tr *tracer, root span) ([]metric, error) {
	s := newStressSampled(1)
	if err := s.setup(); err != nil {
		return nil, err
	}
	var recs []*recorded
	var insts uint64
	for _, st := range s.streams() {
		r, err := record(st)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
		insts += uint64(len(r.recs))
	}
	var out []metric
	period := cacti.BaselinePeriodPS(cacti.Node130)
	gap := s.samp.Period - s.samp.Span()
	warm := uint64(sample.WarmHorizon)

	// trace: seek over each gap beyond the warming horizon, decode the rest.
	var skipD time.Duration
	var skipped uint64
	for k := 0; k < layerReps; k++ {
		sp := tr.start("trace.Reader.Skip", root, 0)
		for _, r := range recs {
			rd, err := r.reader()
			if err != nil {
				return nil, err
			}
			buf := make([]emu.Trace, warm)
			for {
				t0 := time.Now()
				n := rd.Skip(gap - warm)
				skipD += time.Since(t0)
				skipped += n
				if n == 0 || rd.Fill(buf) == 0 {
					break
				}
			}
		}
		sp.finish()
	}
	out = append(out, metric{"trace.skip_ns_per_inst", float64(skipD.Nanoseconds()) / float64(skipped), "ns"})

	// sample: fast-forward over the whole stream in gap-sized steps.
	var ds []float64
	for k := 0; k < layerReps; k++ {
		sp := tr.start("sample.FastForward", root, 0)
		start := time.Now()
		for _, r := range recs {
			rd, err := r.reader()
			if err != nil {
				return nil, err
			}
			w := newWarmer(period)
			for sample.FastForward(rd, w, gap) > 0 {
			}
		}
		ds = append(ds, float64(time.Since(start).Nanoseconds()))
		sp.finish()
	}
	out = append(out, metric{"sample.ff_ns_per_inst", median(ds) / float64(insts), "ns"})

	// sim: sampled Flywheel runs, per covered instruction.
	ds = ds[:0]
	var skippedInsts, total uint64
	for k := 0; k < layerReps; k++ {
		sp := tr.start("sim.Run.sampled", root, 0)
		start := time.Now()
		skippedInsts, total = 0, 0
		for _, st := range s.streams() {
			res, err := sim.Run(sim.RunConfig{Workload: st.name, Arch: sim.ArchFlywheel, Node: cacti.Node130, MaxInstructions: st.budget, Sampling: s.samp})
			if err != nil {
				return nil, err
			}
			if res.Sampled == nil {
				return nil, fmt.Errorf("sampled run of %s returned no sampled estimate", st.name)
			}
			skippedInsts += res.Sampled.SkippedInsts
			total += res.Sampled.TotalInsts
		}
		ds = append(ds, float64(time.Since(start).Nanoseconds()))
		sp.finish()
	}
	return append(out,
		metric{"sim.ns_per_inst.sampled", median(ds) / float64(total), "ns"},
		metric{"sample.detailed_frac", 1 - ratio(float64(skippedInsts), float64(total)), "fraction"},
	), nil
}

func newWarmer(period int64) *pipe.Warmer {
	cfg := mem.DefaultHierarchyConfig(period)
	return pipe.NewWarmer(branch.New(branch.DefaultConfig()), mem.NewHierarchy(cfg))
}

// issueWindowReplay schedules a stream through an issue window: dispatch
// up to the issue width per cycle in program order, link register
// dependences through a RAT, select ready instructions each cycle with
// their functional-unit latencies, and retire in order from a 128-entry
// window of flight.
func issueWindowReplay(recs []emu.Trace, period int64) {
	const width, window = 6, 128
	arena := pipe.NewArena(2*window + width)
	rat := pipe.NewRAT(arena)
	iw := pipe.NewIssueWindow(window)
	fu := pipe.NewFUPool(pipe.DefaultFUConfig())
	inflight := make([]*pipe.DynInst, 0, 2*window)
	next := 0
	for now := period; next < len(recs) || len(inflight) > 0; now += period {
		for k := 0; k < width && next < len(recs) && !iw.Full() && len(inflight) < 2*window; k++ {
			d := arena.Alloc(recs[next])
			rat.Link(d)
			d.State = pipe.StateDispatched
			iw.Insert(d, now)
			inflight = append(inflight, d)
			next++
		}
		for _, d := range iw.Select(now, period, width, fu, nil) {
			d.State = pipe.StateIssued
			d.IssuedAt = now
			d.ResultAt = now + int64(fu.Latency(d.Class()))*period
			d.DoneAt = d.ResultAt
		}
		retired := 0
		for retired < len(inflight) && inflight[retired].DoneAt <= now {
			d := inflight[retired]
			d.State = pipe.StateRetired
			rat.Retire(d)
			arena.Free(d)
			retired++
		}
		inflight = append(inflight[:0], inflight[retired:]...)
	}
}

func addCache(dst *mem.CacheStats, s mem.CacheStats) {
	dst.Reads += s.Reads
	dst.Writes += s.Writes
	dst.ReadMiss += s.ReadMiss
	dst.WriteMiss += s.WriteMiss
	dst.Writebacks += s.Writebacks
}

func addDemand(dst *mem.DemandStats, s mem.DemandStats) {
	dst.DataAccesses += s.DataAccesses
	dst.DataCycles += s.DataCycles
	dst.L2Lookups += s.L2Lookups
	dst.L2Hits += s.L2Hits
}

func addPrefetch(dst *mem.PrefetchStats, s mem.PrefetchStats) {
	dst.Trains += s.Trains
	dst.Issued += s.Issued
	dst.Useful += s.Useful
	dst.Late += s.Late
	dst.DemandMisses += s.DemandMisses
}

// timeSim times sim.Run end to end on each stream for every core, and
// reads the Flywheel core's observables from those runs. The streams'
// traces are already recorded (the workload's set-up), so every run
// replays.
func timeSim(streams []stream, tr *tracer, root span) ([]metric, error) {
	var out []metric
	var ms0, ms1 runtime.MemStats
	var allocRetired uint64
	var mallocs uint64
	var ecRes []float64
	var div, flyRetired uint64
	for _, arch := range []sim.Arch{sim.ArchBaseline, sim.ArchFlywheel, sim.ArchRegAlloc} {
		var ds []float64
		var retired uint64
		for k := 0; k < layerReps; k++ {
			sp := tr.start("sim.Run."+arch.String(), root, 0)
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			retired = 0
			for _, s := range streams {
				res, err := sim.Run(sim.RunConfig{Workload: s.name, Arch: arch, Node: cacti.Node130, MaxInstructions: s.budget})
				if err != nil {
					return nil, err
				}
				retired += res.Retired
				if arch == sim.ArchFlywheel && k == 0 {
					ecRes = append(ecRes, res.ECResidency)
					div += res.Divergences
					flyRetired += res.Retired
				}
			}
			ds = append(ds, float64(time.Since(start).Nanoseconds()))
			runtime.ReadMemStats(&ms1)
			sp.finish()
			mallocs += ms1.Mallocs - ms0.Mallocs
			allocRetired += retired
		}
		out = append(out, metric{"sim.ns_per_inst." + arch.String(), median(ds) / float64(retired), "ns"})
	}
	out = append(out,
		metric{"sim.allocs_per_inst", float64(mallocs) / float64(allocRetired), "count"},
		metric{"core.ec_residency", mean(ecRes), "fraction"},
		metric{"core.divergences_per_kinst", 1000 * float64(div) / float64(flyRetired), "count"},
	)
	return out, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
