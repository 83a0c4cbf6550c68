// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns render-ready tables (via package
// stats) so the CLI, the benchmark harness and EXPERIMENTS.md all share one
// implementation.
//
// Every figure builds its complete job list up front and submits it to the
// lab (package lab), which fans the independent simulations across a worker
// pool and memoizes results by configuration in its cache — the baseline
// runs shared between Figures 11-14 simulate once per cache, Figure 15's
// node variants are priced from the 130 nm timing wherever their clock
// plans scale alike, and a sweep renders byte-identically at any worker
// count.
//
// Reproduction contract (see DESIGN.md): absolute numbers differ from the
// paper — the workloads are proxies and the substrate is a from-scratch
// simulator — but the shapes must hold: who wins, by roughly what factor,
// and where the crossovers fall.
package experiments

import (
	"fmt"

	"flywheel/internal/cacti"
	"flywheel/internal/lab"
	"flywheel/internal/sim"
	"flywheel/internal/stats"
	"flywheel/internal/workload"
)

// Options configures the experiment runs.
type Options struct {
	// Instructions is the measured dynamic instruction budget per run;
	// zero runs each kernel to completion.
	Instructions uint64
	// Node is the technology point for the timing/power experiments
	// (Figures 11-14); Figure 15 sweeps its own nodes.
	Node cacti.Node
	// Parallel is the simulation worker-pool size; 0 uses GOMAXPROCS.
	Parallel int
	// Cache memoizes runs. Nil uses a process-wide cache shared by every
	// experiment, so e.g. the baseline column common to Figures 11-14
	// simulates exactly once per cache.
	Cache *lab.Cache
	// Progress, when non-nil, is called after each completed simulation.
	Progress func(done, total int, j lab.Job)
}

// DefaultOptions mirror the evaluation setup at a practical budget.
func DefaultOptions() Options {
	return Options{Instructions: 300_000, Node: cacti.Node130}
}

func (o Options) normalize() Options {
	if o.Node == 0 {
		o.Node = cacti.Node130
	}
	return o
}

// sharedCache memoizes runs across every experiment in the process.
var sharedCache = lab.NewCache()

// runAll submits a figure's job list to the lab.
func (o Options) runAll(jobs []lab.Job) ([]sim.Result, error) {
	cache := o.Cache
	if cache == nil {
		cache = sharedCache
	}
	return lab.Run(jobs, lab.Options{Workers: o.Parallel, Cache: cache, Progress: o.Progress})
}

// job builds the common job shape of the timing/power figures.
func (o Options) job(name string, arch sim.Arch, fe, be int) lab.Job {
	return lab.Job{
		Workload: name, Arch: arch, Node: o.Node,
		FEBoostPct: fe, BEBoostPct: be,
		MaxInstructions: o.Instructions,
	}
}

// Figure1 reproduces the latency-scaling curves: access latency of issue
// windows, caches and register files across process technologies.
func Figure1() *stats.Table {
	tbl := stats.NewTable("Figure 1 — access latency [ps] vs technology node",
		append([]string{"structure"}, nodeNames()...)...)
	for _, c := range cacti.Figure1() {
		row := []string{c.Label}
		for _, v := range c.LatencyPS {
			row = append(row, stats.F(v, 0))
		}
		tbl.Add(row...)
	}
	return tbl
}

// Table1 reproduces the per-module clock frequencies, alongside the paper's
// published values.
func Table1() *stats.Table {
	tbl := stats.NewTable("Table 1 — module clock frequencies [MHz] (model / paper)",
		"module", "0.18um", "0.13um", "0.09um", "0.06um")
	nodes := []cacti.Node{cacti.Node180, cacti.Node130, cacti.Node90, cacti.Node60}
	row := func(name string, get func(cacti.Table1Row) float64) {
		cells := []string{name}
		for _, n := range nodes {
			model := get(cacti.Table1(n))
			paper := get(cacti.PaperTable1[n])
			cells = append(cells, fmt.Sprintf("%.0f / %.0f", model, paper))
		}
		tbl.Add(cells...)
	}
	row("Issue Window (1 cyc)", func(r cacti.Table1Row) float64 { return r.IssueWindow })
	row("I-Cache (2 cyc)", func(r cacti.Table1Row) float64 { return r.ICache })
	row("D-Cache (2 cyc)", func(r cacti.Table1Row) float64 { return r.DCache })
	row("Register File (1 cyc)", func(r cacti.Table1Row) float64 { return r.RegFile })
	row("Execution Cache (3 cyc)", func(r cacti.Table1Row) float64 { return r.ExecutionCache })
	row("Flywheel RF (2 cyc)", func(r cacti.Table1Row) float64 { return r.FlywheelRegFile })
	return tbl
}

func nodeNames() []string {
	out := make([]string, len(cacti.Nodes))
	for i, n := range cacti.Nodes {
		out[i] = n.String()
	}
	return out
}

// figure2Jobs lists Figure 2's runs: per benchmark, the plain baseline, the
// extra-front-end-stage variant, and the pipelined wake-up/select variant.
func figure2Jobs(opt Options) []lab.Job {
	var jobs []lab.Job
	for _, name := range workload.Names() {
		base := opt.job(name, sim.ArchBaseline, 0, 0)
		fe := base
		fe.ExtraFrontEndStages = 1
		ws := base
		ws.PipelinedWakeupSelect = true
		jobs = append(jobs, base, fe, ws)
	}
	return jobs
}

// Figure2 reproduces the pipelining-sensitivity study: IPC degradation from
// one extra front-end stage (Fetch/Mispredict loop) vs from pipelining
// Wake-Up/Select.
func Figure2(opt Options) (*stats.Table, error) {
	opt = opt.normalize()
	res, err := opt.runAll(figure2Jobs(opt))
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("Figure 2 — IPC degradation [%] from pipelining critical loops",
		"bench", "fetch/mispredict +1 stage", "wake-up/select pipelined")
	var feLoss, wsLoss []float64
	for i, name := range workload.Names() {
		base, fe, ws := res[3*i], res[3*i+1], res[3*i+2]
		fePct := (1 - fe.IPC/base.IPC) * 100
		wsPct := (1 - ws.IPC/base.IPC) * 100
		feLoss = append(feLoss, fePct)
		wsLoss = append(wsLoss, wsPct)
		tbl.AddF(name, 1, fePct, wsPct)
	}
	tbl.AddF("average", 1, stats.Mean(feLoss), stats.Mean(wsLoss))
	return tbl, nil
}

// figure11Jobs lists Figure 11's runs: per benchmark, the baseline, the
// Register-Allocation configuration and the full Flywheel, all at the
// baseline clock.
func figure11Jobs(opt Options) []lab.Job {
	var jobs []lab.Job
	for _, name := range workload.Names() {
		jobs = append(jobs,
			opt.job(name, sim.ArchBaseline, 0, 0),
			opt.job(name, sim.ArchRegAlloc, 0, 0),
			opt.job(name, sim.ArchFlywheel, 0, 0),
		)
	}
	return jobs
}

// Figure11 reproduces the equal-clock comparison: the Register-Allocation
// configuration and the full Flywheel, normalized to the baseline.
func Figure11(opt Options) (*stats.Table, error) {
	opt = opt.normalize()
	res, err := opt.runAll(figure11Jobs(opt))
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("Figure 11 — normalized performance at the baseline clock",
		"bench", "register allocation", "flywheel", "EC residency")
	var ra, fw []float64
	for i, name := range workload.Names() {
		base, reg, fly := res[3*i], res[3*i+1], res[3*i+2]
		raPerf := reg.Speedup(base)
		fwPerf := fly.Speedup(base)
		ra = append(ra, raPerf)
		fw = append(fw, fwPerf)
		tbl.Add(name, stats.F(raPerf, 3), stats.F(fwPerf, 3), stats.Pct(fly.ECResidency))
	}
	tbl.Add("average", stats.F(stats.GeoMean(ra), 3), stats.F(stats.GeoMean(fw), 3), "")
	return tbl, nil
}

// FESweep is the front-end boost series shared by Figures 12-14.
var FESweep = []int{0, 25, 50, 75, 100}

// SweepData holds the Figure 12-14 runs: per benchmark, the baseline run
// and the Flywheel runs at every front-end boost (back-end +50%).
type SweepData struct {
	Options   Options
	Baselines map[string]sim.Result
	Flywheel  map[string]map[int]sim.Result // bench -> FE% -> result
}

// sweepJobs lists the clock-scaling runs: per benchmark, the baseline and
// one Flywheel run per front-end boost at back-end +50%.
func sweepJobs(opt Options) []lab.Job {
	var jobs []lab.Job
	for _, name := range workload.Names() {
		jobs = append(jobs, opt.job(name, sim.ArchBaseline, 0, 0))
		for _, fe := range FESweep {
			jobs = append(jobs, opt.job(name, sim.ArchFlywheel, fe, 50))
		}
	}
	return jobs
}

// Sweep performs the clock-scaling measurement once for all three figures.
func Sweep(opt Options) (*SweepData, error) {
	opt = opt.normalize()
	res, err := opt.runAll(sweepJobs(opt))
	if err != nil {
		return nil, err
	}
	d := &SweepData{
		Options:   opt,
		Baselines: map[string]sim.Result{},
		Flywheel:  map[string]map[int]sim.Result{},
	}
	stride := 1 + len(FESweep)
	for i, name := range workload.Names() {
		d.Baselines[name] = res[stride*i]
		d.Flywheel[name] = map[int]sim.Result{}
		for k, fe := range FESweep {
			d.Flywheel[name][fe] = res[stride*i+1+k]
		}
	}
	return d, nil
}

func sweepHeader() []string {
	h := []string{"bench"}
	for _, fe := range FESweep {
		h = append(h, fmt.Sprintf("FE%d%%,BE50%%", fe))
	}
	return h
}

// tabulate renders one metric of the sweep as a per-benchmark table with a
// geometric-mean average row.
func (d *SweepData) tabulate(title string, metric func(fly, base sim.Result) float64) *stats.Table {
	tbl := stats.NewTable(title, sweepHeader()...)
	avg := make([][]float64, len(FESweep))
	for _, name := range workload.Names() {
		row := []string{name}
		for i, fe := range FESweep {
			v := metric(d.Flywheel[name][fe], d.Baselines[name])
			avg[i] = append(avg[i], v)
			row = append(row, stats.F(v, 3))
		}
		tbl.Add(row...)
	}
	avgRow := []string{"average"}
	for i := range FESweep {
		avgRow = append(avgRow, stats.F(stats.GeoMean(avg[i]), 3))
	}
	tbl.Add(avgRow...)
	return tbl
}

// Figure12 renders normalized performance for the clock sweep.
func (d *SweepData) Figure12() *stats.Table {
	return d.tabulate("Figure 12 — normalized performance (FE sweep, BE+50%)",
		func(fly, base sim.Result) float64 { return fly.Speedup(base) })
}

// Figure13 renders normalized energy for the clock sweep.
func (d *SweepData) Figure13() *stats.Table {
	return d.tabulate("Figure 13 — normalized energy (FE sweep, BE+50%)",
		func(fly, base sim.Result) float64 { return fly.EnergyPJ / base.EnergyPJ })
}

// Figure14 renders normalized power for the clock sweep.
func (d *SweepData) Figure14() *stats.Table {
	return d.tabulate("Figure 14 — normalized power (FE sweep, BE+50%)",
		func(fly, base sim.Result) float64 { return fly.PowerW / base.PowerW })
}

// Residency renders the EC residency observed during the sweep (the paper's
// in-text "88% of the time on the alternative execution path").
func (d *SweepData) Residency() *stats.Table {
	tbl := stats.NewTable("EC residency — fraction of time in trace-execution mode",
		sweepHeader()...)
	avg := make([][]float64, len(FESweep))
	for _, name := range workload.Names() {
		row := []string{name}
		for i, fe := range FESweep {
			v := d.Flywheel[name][fe].ECResidency
			avg[i] = append(avg[i], v)
			row = append(row, stats.Pct(v))
		}
		tbl.Add(row...)
	}
	avgRow := []string{"average"}
	for i := range FESweep {
		avgRow = append(avgRow, stats.Pct(stats.Mean(avg[i])))
	}
	tbl.Add(avgRow...)
	return tbl
}

// Figure15Nodes are the technology points of the leakage study.
var Figure15Nodes = []cacti.Node{cacti.Node130, cacti.Node90, cacti.Node60}

// figure15Jobs lists the leakage study's runs: per benchmark and node, the
// baseline and the Flywheel at (FE+100%, BE+50%).
func figure15Jobs(opt Options) []lab.Job {
	var jobs []lab.Job
	for _, name := range workload.Names() {
		for _, node := range Figure15Nodes {
			o := opt
			o.Node = node
			jobs = append(jobs,
				o.job(name, sim.ArchBaseline, 0, 0),
				o.job(name, sim.ArchFlywheel, 100, 50),
			)
		}
	}
	return jobs
}

// Figure15 reproduces the energy-savings-vs-technology study at
// (FE+100%, BE+50%): each node's Flywheel energy normalized to that node's
// baseline.
func Figure15(opt Options) (*stats.Table, error) {
	opt = opt.normalize()
	res, err := opt.runAll(figure15Jobs(opt))
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("Figure 15 — normalized energy at (FE+100%, BE+50%) per node",
		"bench", "130nm", "90nm", "60nm")
	avg := make([][]float64, len(Figure15Nodes))
	stride := 2 * len(Figure15Nodes)
	for bi, name := range workload.Names() {
		row := []string{name}
		for i := range Figure15Nodes {
			base, fly := res[stride*bi+2*i], res[stride*bi+2*i+1]
			v := fly.EnergyPJ / base.EnergyPJ
			avg[i] = append(avg[i], v)
			row = append(row, stats.F(v, 3))
		}
		tbl.Add(row...)
	}
	avgRow := []string{"average"}
	for i := range Figure15Nodes {
		avgRow = append(avgRow, stats.F(stats.GeoMean(avg[i]), 3))
	}
	tbl.Add(avgRow...)
	return tbl, nil
}

// SuiteJobs lists every run of the Figure 11-15 suite (with duplicates
// across figures left in, the way the figures submit them) — the input to
// the suite-regeneration benchmark.
func SuiteJobs(opt Options) []lab.Job {
	opt = opt.normalize()
	var jobs []lab.Job
	jobs = append(jobs, figure11Jobs(opt)...)
	jobs = append(jobs, sweepJobs(opt)...)
	jobs = append(jobs, figure15Jobs(opt)...)
	return jobs
}

// Table2 documents the simulated machine parameters (the paper's Table 2).
func Table2() *stats.Table {
	tbl := stats.NewTable("Table 2 — microarchitecture parameters", "parameter", "value")
	rows := [][2]string{
		{"Pipeline", "9 stages baseline, 4-way out-of-order"},
		{"Instruction Window", "128 entries, issue width 6"},
		{"Register File", "192 entries baseline; 512 entries / 2-cycle Flywheel"},
		{"Load/Store Queue", "64 entries"},
		{"I-Cache", "64K, 2-way, 2-cycle hit, LRU"},
		{"D-Cache", "64K, 4-way, 2-cycle hit, LRU"},
		{"L2 Cache", "unified 512K, 4-way, 10-cycle, LRU"},
		{"Execution Cache", "128K, 2-way, 3-cycle hit, 8-instruction blocks"},
		{"Memory", "100 baseline cycles (fixed wall-clock time)"},
		{"Functional Units", "4 int ALU, 2 int MUL/DIV, 2 mem ports, 2 FP add, 1 FP MUL/DIV"},
		{"Branch Prediction", "G-share, 12-bit history, 2048 entries"},
		{"Rename pools", "512 regs / 64 arch regs, adaptive redistribution every 500k cycles"},
	}
	for _, r := range rows {
		tbl.Add(r[0], r[1])
	}
	return tbl
}
