// Package flywheel is a from-scratch Go reproduction of "Increased
// Scalability and Power Efficiency by Using Multiple Speed Pipelines"
// (Talpes & Marculescu, ISCA 2005): the Flywheel microarchitecture, in
// which a dual-clock issue window decouples the pipeline front-end into its
// own faster clock domain and an Execution Cache replays pre-scheduled
// issue units so the execution core can run at a higher frequency with the
// front-end and scheduler clock-gated.
//
// The package exposes the complete evaluation stack: a cycle-level
// simulator of the baseline superscalar out-of-order machine and of the
// Flywheel machine, the CACTI-style technology model that sets per-module
// clock frequencies, a Wattch-style energy model, the ten benchmark-proxy
// workloads, and runners for every table and figure in the paper.
//
// Quick start:
//
//	res, err := flywheel.Run(flywheel.Config{
//	    Benchmark:  "gcc",
//	    Arch:       flywheel.ArchFlywheel,
//	    FEBoostPct: 50,
//	    BEBoostPct: 50,
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package flywheel

import (
	"fmt"

	"flywheel/internal/cacti"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/labd"
	"flywheel/internal/sim"
	"flywheel/internal/workload"
)

// Arch selects the simulated machine.
type Arch int

// Machine architectures.
const (
	// ArchBaseline is the paper's fully synchronous four-way superscalar
	// out-of-order processor (Table 2).
	ArchBaseline Arch = iota
	// ArchFlywheel is the full proposal: dual-clock issue window,
	// execution cache and two-phase renaming.
	ArchFlywheel
	// ArchRegAlloc is the intermediate configuration of Figure 11: the
	// dual-clock issue window and new register allocation without the
	// execution cache.
	ArchRegAlloc
)

// String names the architecture.
func (a Arch) String() string { return a.internal().String() }

func (a Arch) internal() sim.Arch {
	switch a {
	case ArchFlywheel:
		return sim.ArchFlywheel
	case ArchRegAlloc:
		return sim.ArchRegAlloc
	default:
		return sim.ArchBaseline
	}
}

// Node is a process technology feature size in micrometers. It selects the
// baseline clock (the issue-window frequency from the latency model) and
// the power model's electrical parameters.
type Node float64

// Supported technology nodes.
const (
	Node180 Node = 0.18
	Node130 Node = 0.13
	Node90  Node = 0.09
	Node60  Node = 0.06
)

// Config describes one simulation run.
type Config struct {
	// Benchmark names one of the workloads (see Benchmarks()).
	Benchmark string
	// Arch selects the machine; the zero value is the baseline.
	Arch Arch
	// Node selects the technology point; the zero value is 0.13 µm.
	Node Node
	// FEBoostPct speeds up the front-end clock domain (0..100, §5).
	FEBoostPct int
	// BEBoostPct speeds up the trace-execution back-end clock (0..50).
	BEBoostPct int
	// Instructions bounds the measured dynamic instruction count after the
	// workload's warm-up; the zero value runs 300k instructions. Use
	// RunToCompletion to simulate the whole program.
	Instructions uint64
	// RunToCompletion ignores Instructions and runs the workload to halt.
	RunToCompletion bool
}

// Result is one simulation outcome.
type Result struct {
	// TimePS is the simulated execution time in picoseconds — the paper's
	// performance metric (clock domains differ, so cycle counts don't
	// compare).
	TimePS int64
	// Cycles counts executed back-end clock cycles.
	Cycles uint64
	// Retired counts committed instructions.
	Retired uint64
	// IPC is Retired/Cycles (back-end cycles).
	IPC float64
	// EnergyPJ is the total energy estimate in picojoules.
	EnergyPJ float64
	// PowerW is the average power in watts.
	PowerW float64
	// LeakageFrac is leakage's share of total energy.
	LeakageFrac float64
	// ECResidency is the fraction of time spent in trace-execution mode
	// (zero for the baseline).
	ECResidency float64
	// Mispredicts counts front-end branch mispredictions; Divergences
	// counts trace-path mispredictions during replay.
	Mispredicts uint64
	Divergences uint64
	// BranchAccuracy is the front-end predictor's accuracy.
	BranchAccuracy float64
}

// Speedup returns base's execution time divided by r's.
func (r Result) Speedup(base Result) float64 {
	if r.TimePS == 0 {
		return 0
	}
	return float64(base.TimePS) / float64(r.TimePS)
}

// job converts the public configuration into the lab's job spec, applying
// the public defaults (300k instructions, the 0.13 µm node).
func (cfg Config) job() lab.Job {
	instructions := cfg.Instructions
	if instructions == 0 && !cfg.RunToCompletion {
		instructions = 300_000
	}
	if cfg.RunToCompletion {
		instructions = 0
	}
	node := cacti.Node(cfg.Node)
	if cfg.Node == 0 {
		node = cacti.Node130
	}
	return lab.Job{
		Workload:        cfg.Benchmark,
		Arch:            cfg.Arch.internal(),
		Node:            node,
		FEBoostPct:      cfg.FEBoostPct,
		BEBoostPct:      cfg.BEBoostPct,
		MaxInstructions: instructions,
	}
}

// Run executes one simulation.
func Run(cfg Config) (Result, error) {
	res, err := sim.Run(cfg.job().Config())
	if err != nil {
		return Result{}, err
	}
	return publicResult(res), nil
}

// Store is a persistent, content-addressed run cache: results are
// memoized in memory and written through to a directory of versioned JSON
// entries, so a sweep re-run in a new process — or in another process
// sharing the directory — simulates each distinct configuration exactly
// once, ever. Open one Store per process and share it across calls; the
// in-memory tier then also dedupes within the process.
type Store struct {
	cache *lab.Cache
}

// OpenStore creates (if needed) and opens a result store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Store{cache: lab.NewCacheWithStore(st)}, nil
}

// StatsLine renders the store's cache counters (memory hits, disk hits,
// simulation runs, on-disk size) as one line for logs.
func (s *Store) StatsLine() string { return s.cache.StatsLine() }

// Client submits runs to a labd batch service (cmd/labd) instead of
// simulating in-process, sharing that service's warm store with every
// other client.
type Client struct {
	c *labd.Client
}

// NewClient returns a client for the labd service at baseURL, e.g.
// "http://127.0.0.1:8080".
func NewClient(baseURL string) *Client {
	return &Client{c: labd.NewClient(baseURL)}
}

// SweepOptions controls the concurrent batch runners RunMany and Sweep.
type SweepOptions struct {
	// Workers is the worker-pool size; zero or negative uses GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called after each completed run with the
	// number finished so far (1..total) and the total. Calls are serialized
	// but arrive in completion order. Ignored when Client is set (the
	// service does not stream progress, only results).
	Progress func(done, total int)
	// Store persists results across processes; nil keeps the sweep's
	// memoization in-memory only.
	Store *Store
	// Client, when non-nil, routes the whole batch to a labd service and
	// takes precedence over Store (the service has its own store).
	Client *Client
}

func (o SweepOptions) labOptions() lab.Options {
	lo := lab.Options{Workers: o.Workers}
	if o.Store != nil {
		lo.Cache = o.Store.cache
	}
	if o.Progress != nil {
		lo.Progress = func(done, total int, _ lab.Job) { o.Progress(done, total) }
	}
	return lo
}

// RunMany executes the given configurations concurrently on a worker pool
// and returns the results in configuration order, independent of completion
// order. Configurations that are identical after defaulting simulate
// exactly once and share one result. If any run fails, the error of the
// lowest-indexed failing configuration is returned.
func RunMany(cfgs []Config, opt SweepOptions) ([]Result, error) {
	if len(cfgs) == 0 {
		// Both paths agree on empty input; the service would reject an
		// empty batch.
		return []Result{}, nil
	}
	jobs := make([]lab.Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = c.job()
	}
	if opt.Client != nil {
		lines, err := opt.Client.c.Sweep(labd.SweepRequest{Jobs: jobs, Workers: opt.Workers})
		if err != nil {
			return nil, err
		}
		out := make([]Result, len(lines))
		for i, line := range lines {
			out[i] = publicResult(*line.Result)
		}
		return out, nil
	}
	res, err := lab.Run(jobs, opt.labOptions())
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = publicResult(r)
	}
	return out, nil
}

// Sweep runs base once per (benchmark, front-end boost) combination and
// returns the results indexed [benchmark][boost], aligned with the input
// slices. A nil benchmarks slice sweeps every workload (Benchmarks()); a
// nil feBoosts slice runs only base's own FEBoostPct. The cross-product is
// executed concurrently with duplicate configurations deduplicated — the
// paper's Figure 12-14 measurement is one Sweep call.
func Sweep(base Config, benchmarks []string, feBoosts []int, opt SweepOptions) ([][]Result, error) {
	if benchmarks == nil {
		benchmarks = Benchmarks()
	}
	if feBoosts == nil {
		feBoosts = []int{base.FEBoostPct}
	}
	cfgs := make([]Config, 0, len(benchmarks)*len(feBoosts))
	for _, b := range benchmarks {
		for _, fe := range feBoosts {
			c := base
			c.Benchmark = b
			c.FEBoostPct = fe
			cfgs = append(cfgs, c)
		}
	}
	flat, err := RunMany(cfgs, opt)
	if err != nil {
		return nil, err
	}
	out := make([][]Result, len(benchmarks))
	for i := range benchmarks {
		out[i] = flat[i*len(feBoosts) : (i+1)*len(feBoosts)]
	}
	return out, nil
}

func publicResult(res sim.Result) Result {
	return Result{
		TimePS:         res.TimePS,
		Cycles:         res.Cycles,
		Retired:        res.Retired,
		IPC:            res.IPC,
		EnergyPJ:       res.EnergyPJ,
		PowerW:         res.PowerW,
		LeakageFrac:    res.LeakageFrac,
		ECResidency:    res.ECResidency,
		Mispredicts:    res.Mispredicts,
		Divergences:    res.Divergences,
		BranchAccuracy: res.BranchAccuracy,
	}
}

// CacheStats reports the process-wide record-once/replay-many
// dynamic-trace cache. (The per-store result cache reports through
// Store.StatsLine.)
type CacheStats struct {
	// Trace-cache traffic: replays served from a recording, recordings
	// made, runs that bypassed the cache, and recordings evicted by the
	// memory cap.
	TraceHits, TraceMisses, TraceBypasses, TraceEvictions uint64
	// TraceEntries recordings are resident, TraceBytes their encoded size.
	TraceEntries int
	TraceBytes   int64
}

// Caches returns a snapshot of the simulator cache counters.
func Caches() CacheStats {
	ts := sim.TraceCacheStats()
	return CacheStats{
		TraceHits: ts.Hits, TraceMisses: ts.Misses, TraceBypasses: ts.Bypasses, TraceEvictions: ts.Evictions,
		TraceEntries: ts.Entries, TraceBytes: ts.ResidentBytes,
	}
}

// Compare runs the same benchmark on the baseline and on the given
// configuration, returning both results.
func Compare(cfg Config) (target, baseline Result, err error) {
	target, err = Run(cfg)
	if err != nil {
		return Result{}, Result{}, err
	}
	base := cfg
	base.Arch = ArchBaseline
	base.FEBoostPct, base.BEBoostPct = 0, 0
	baseline, err = Run(base)
	if err != nil {
		return Result{}, Result{}, err
	}
	return target, baseline, nil
}

// Benchmarks lists the available workloads in the paper's figure order.
func Benchmarks() []string { return workload.Names() }

// BenchmarkInfo describes one workload.
type BenchmarkInfo struct {
	Name        string
	Suite       string
	FP          bool
	Description string
}

// Describe returns the metadata of a workload.
func Describe(name string) (BenchmarkInfo, error) {
	w, err := workload.Get(name)
	if err != nil {
		return BenchmarkInfo{}, err
	}
	return BenchmarkInfo{Name: w.Name, Suite: w.Suite, FP: w.FP, Description: w.Description}, nil
}

// ModuleFrequencies returns the latency-model clock frequencies (MHz) of
// the main pipeline modules at a node (the paper's Table 1).
type ModuleFrequencies struct {
	IssueWindow     float64
	ICache          float64
	DCache          float64
	RegFile         float64
	ExecutionCache  float64
	FlywheelRegFile float64
}

// Frequencies computes the Table 1 row for a node.
func Frequencies(n Node) (ModuleFrequencies, error) {
	switch n {
	case Node180, Node130, Node90, Node60:
	default:
		return ModuleFrequencies{}, fmt.Errorf("flywheel: unsupported node %v", float64(n))
	}
	t := cacti.Table1(cacti.Node(n))
	return ModuleFrequencies{
		IssueWindow:     t.IssueWindow,
		ICache:          t.ICache,
		DCache:          t.DCache,
		RegFile:         t.RegFile,
		ExecutionCache:  t.ExecutionCache,
		FlywheelRegFile: t.FlywheelRegFile,
	}, nil
}

// RunAssembly assembles a custom program for the flywheel ISA and runs it
// under the given configuration (the whole program is measured; Benchmark
// is used only as a label). See the assembler syntax in internal/asm and
// the workload kernels for examples.
func RunAssembly(name, source string, cfg Config) (Result, error) {
	node := cacti.Node(cfg.Node)
	if cfg.Node == 0 {
		node = cacti.Node130
	}
	instructions := cfg.Instructions
	if cfg.RunToCompletion {
		instructions = 0
	}
	res, err := sim.RunSource(name, source, sim.RunConfig{
		Workload:        name,
		Arch:            cfg.Arch.internal(),
		Node:            node,
		FEBoostPct:      cfg.FEBoostPct,
		BEBoostPct:      cfg.BEBoostPct,
		MaxInstructions: instructions,
	})
	if err != nil {
		return Result{}, err
	}
	return publicResult(res), nil
}
