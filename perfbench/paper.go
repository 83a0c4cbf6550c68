package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"

	"flywheel/internal/cacti"
	"flywheel/internal/experiments"
	"flywheel/internal/lab"
	"flywheel/internal/sim"
	"flywheel/internal/stats"
	"flywheel/internal/workload"
)

// goldenPath is the paper-figure transcript the paper-exact workload must
// reproduce byte for byte (the same file cmd/experiments' golden test
// pins).
const goldenPath = "cmd/experiments/testdata/golden_frontend_default.txt"

// paperBudget is the golden transcript's instruction budget.
const paperBudget = 40_000

// paperWorkers is the lab worker-pool size of every paper-exact pass.
const paperWorkers = 2

// paperFigures names the four simulated figures in the order a pass
// computes them, the order of `experiments -fig all`. Each figure is one
// request. The figures share the pass's memo cache, so a figure's cost
// depends on the figures before it.
var paperFigures = [4]string{"figure2", "figure11", "sweep", "figure15"}

// paperExact renders every paper figure in process, exactly like
// `experiments -fig all -n 40000`, through lab.Run with an empty memo
// cache on every pass. Warm snapshots and dynamic traces recorded in
// set-up stay, so the work is trace replay through the exact timing cores.
// Its inputs are the paper's, so the seed changes nothing.
type paperExact struct {
	golden  []byte
	ipcErr  float64 // the sampled tier on its validation set
	ciCover float64
}

func newPaperExact() *paperExact { return &paperExact{} }

func (p *paperExact) fingerprint(f map[string]string) {
	f["instructions"] = strconv.Itoa(paperBudget)
	f["lab_workers"] = strconv.Itoa(paperWorkers)
	validationFingerprint(f)
}

func (p *paperExact) close() {}

func (p *paperExact) streams() []stream {
	var s []stream
	for _, name := range workload.Names() {
		s = append(s, stream{name, paperBudget})
	}
	return s
}

// setup assembles every paper workload, builds its warm snapshot and
// records its dynamic trace at the golden budget (the first run of a
// workload records while its baseline core consumes the stream).
func (p *paperExact) setup() error {
	for _, name := range workload.Names() {
		if _, err := sim.Run(sim.RunConfig{Workload: name, Arch: sim.ArchBaseline, Node: cacti.Node130, MaxInstructions: paperBudget}); err != nil {
			return err
		}
	}
	return nil
}

// oracle reads the golden transcript and measures the sampled tier on its
// validation set (the workload itself runs no sampled jobs).
func (p *paperExact) oracle() error {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	p.golden = b
	p.ipcErr, p.ciCover, err = childValidate()
	return err
}

// render runs one pass, timing each figure as a request, and returns the
// transcript.
func (p *paperExact) render(cache *lab.Cache, log *requestLog, progress func(done, total int, j lab.Job)) ([]byte, error) {
	opt := experiments.Options{Instructions: paperBudget, Node: cacti.Node130, Parallel: paperWorkers, Cache: cache, Progress: progress}
	var fig2, fig11, fig15 *stats.Table
	var sweep *experiments.SweepData
	for k, name := range paperFigures {
		var err error
		start := time.Now()
		switch k {
		case 0:
			fig2, err = experiments.Figure2(opt)
		case 1:
			fig11, err = experiments.Figure11(opt)
		case 2:
			sweep, err = experiments.Sweep(opt)
		case 3:
			fig15, err = experiments.Figure15(opt)
		}
		if err != nil {
			return nil, err
		}
		log.add(name, time.Since(start))
	}
	var buf bytes.Buffer
	for _, t := range []*stats.Table{
		experiments.Figure1(), experiments.Table1(), experiments.Table2(), fig2, fig11,
		sweep.Figure12(), sweep.Figure13(), sweep.Figure14(), sweep.Residency(), fig15,
	} {
		fmt.Fprintln(&buf, t.String())
	}
	return buf.Bytes(), nil
}

func (p *paperExact) measure(deadline time.Time, tr *tracer) (outcome, error) {
	var out outcome
	var log requestLog
	var tiers lab.Stats
	before := sim.TraceCacheStats()
	err := units(deadline, &out, func(i int) error {
		cache := lab.NewCache()
		sampled := 0
		log.sample(2)
		sp := tr.start("paper-exact.pass", span{}, int64(i+1))
		got, err := p.render(cache, &log, func(done, total int, j lab.Job) {
			if j.Sampling.Enabled() {
				sampled++
			}
		})
		sp.finish()
		if err != nil {
			return err
		}
		out.attempted++
		s := cache.Stats()
		tiers.Hits += s.Hits
		tiers.DiskHits += s.DiskHits
		tiers.Misses += s.Misses
		switch {
		case !bytes.Equal(got, p.golden):
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("pass %d: transcript differs from %s at byte %d", i, goldenPath, firstDiff(got, p.golden)))
		case sampled > 0:
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("pass %d: %d jobs ran the sampled tier", i, sampled))
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	// Coverage: the exact tier on recorded traces. Every simulation must
	// have replayed a trace recorded in set-up; none may record or bypass.
	after := sim.TraceCacheStats()
	if rec, by := after.Misses-before.Misses, after.Bypasses-before.Bypasses; rec != 0 || by != 0 {
		out.problems = append(out.problems, fmt.Sprintf("passes recorded %d traces and bypassed %d; set-up should have recorded them all", rec, by))
	}
	replays := after.Hits - before.Hits
	log.report(&out)
	out.metrics = append(out.metrics,
		metric{"ipc_err_pct", p.ipcErr, "%"},
		metric{"ci_coverage", p.ciCover, "fraction"},
	)
	out.layers = append(out.layers, tierRatios(tiers)...)
	out.layers = append(out.layers, metric{"trace.replay_ratio", ratio(float64(replays), float64(tiers.Misses)), "fraction"})
	out.layers = append(out.layers, zeroFabric()...)
	return out, nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// tierRatios splits lab cache requests across the memory tier, the disk
// tier and simulation.
func tierRatios(s lab.Stats) []metric {
	total := float64(s.Hits + s.DiskHits + s.Misses)
	return []metric{
		{"lab.mem_ratio", ratio(float64(s.Hits), total), "fraction"},
		{"lab.disk_ratio", ratio(float64(s.DiskHits), total), "fraction"},
		{"lab.sim_ratio", ratio(float64(s.Misses), total), "fraction"},
	}
}

// zeroFabric reports the fabric recovery counters of a workload that does
// not use the fabric.
func zeroFabric() []metric {
	return []metric{
		{"fabric.retries_per_req", 0, "count"},
		{"fabric.hedges_per_req", 0, "count"},
		{"fabric.steals_per_req", 0, "count"},
		{"fabric.shed_per_req", 0, "count"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
