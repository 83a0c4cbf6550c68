// Command perfbench is the repository's benchmark. One invocation sets up
// and measures one named workload against the simulator, lab and sweep
// cluster, checks the workload's outputs, and prints every metric with its
// unit; the last line of standard output is a single JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"}}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload paper-exact --seed 1 --seconds 15 --trace 0
//	perfbench --workload stress-sampled --seed 1 --seconds 15 --trace 1
//	perfbench compare old.json new.json
//
// With --trace 0 the run reports the end-to-end metrics with tracing off.
// With --trace 1 it is the separate traced run: it measures the workload
// untraced and then traced (spans plus a CPU profile, written under
// .bench_out when the run ends), reports the difference as
// tracing_overhead_pct, and times each layer's public entry points on the
// workload's own instruction streams. NOTES.md records why each workload
// exists and which end-to-end metric each per-layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outRoot holds everything a run leaves behind: per-run stores, reports,
// spans and CPU profiles. It is relative to the repository root, where the
// benchmark runs.
const outRoot = ".bench_out"

// minUnits is the fewest measured units (passes or rounds) a run makes,
// even when one unit outlasts --seconds.
const minUnits = 3

// One untraced run times cold set-ups, each in a fresh child process so
// process-wide caches start empty, until it has setupSamples of them and
// they add up to setupSeconds (at most maxSetupSamples); setup_s is their
// median. Short set-ups are repeated more, since they vary more. (The
// run's own set-up is not a sample: it shares the process with the
// measurement.)
const (
	setupSamples    = 5
	setupSeconds    = 4.0
	maxSetupSamples = 15
)

// maxProblems bounds how many failed checks a report lists.
const maxProblems = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	setupOnly bool
	validate  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&opt.seconds, "seconds", 15, "how long the measurement runs")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the separate traced run that reports per-layer metrics")
	fs.BoolVar(&opt.setupOnly, "setup-only", false, "time one cold set-up and exit (used for setup_s samples)")
	fs.BoolVar(&opt.validate, "validate-sampling", false, "measure the sampled tier on its validation set and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = traceFlag != 0
	if opt.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	if err := checkSources(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if opt.validate {
		errPct, coverage, err := validateSampling()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(errPct, 'g', -1, 64), strconv.FormatFloat(coverage, 'g', -1, 64))
		return 0
	}
	w, err := newWorkload(opt.workload, opt.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer w.close()

	if opt.setupOnly {
		s, err := timeSetup(w)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(s, 'g', -1, 64))
		return 0
	}

	var rep report
	if opt.trace {
		rep, err = tracedRun(opt, w, stderr)
	} else {
		rep, err = timedRun(opt, w, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.save(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// checkSources fails fast when the benchmark runs outside a checkout of the
// repository (only its own files present): there is no program to measure.
func checkSources() error {
	for _, p := range []string{"go.mod", goldenPath} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("not in a repository checkout: %w", err)
		}
	}
	return nil
}

// benchWorkload is one named benchmark input set.
type benchWorkload interface {
	// setup does the program's own set-up — everything a user pays before
	// the first request: assembly, synthetic generation, warm snapshots,
	// trace recording, store seeding, cluster start.
	setup() error
	// oracle computes the benchmark's reference outputs. It is not timed.
	oracle() error
	// measure runs measured units until the deadline (at least minUnits)
	// with tracing through tr (nil: off) and reports the outcome.
	measure(deadline time.Time, tr *tracer) (outcome, error)
	// streams are the dynamic instruction streams the workload replays;
	// the traced run times each layer on them.
	streams() []stream
	// fingerprint adds the workload's budgets to the run's fingerprint.
	fingerprint(f map[string]string)
	close()
}

func workloadNames() []string { return []string{"paper-exact", "stress-sampled", "cluster-skew"} }

func newWorkload(name string, seed uint64) (benchWorkload, error) {
	switch name {
	case "paper-exact":
		return newPaperExact(), nil
	case "stress-sampled":
		return newStressSampled(seed), nil
	case "cluster-skew":
		return newClusterSkew(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// outcome is what measuring a workload produced.
type outcome struct {
	attempted, failed int
	// problems lists every failed output or coverage check; any entry
	// makes the run incorrect.
	problems []string
	// metrics are the workload's end-to-end metrics (setup_s and
	// peak_heap_mb are added by the harness).
	metrics []metric
	// peakHeapMB holds the peak live heap of each measured unit.
	peakHeapMB []float64
	// unitCostS is the workload's cost per unit of work (a pass or a
	// round), compared between the untraced and traced halves of the
	// traced run.
	unitCostS float64
	// layers are per-layer metrics the workload observes while running
	// (cache tiers, fabric recovery counters, trace replay).
	layers []metric
	// notes are human-readable details for the report (per-unit samples).
	notes []string
}

type metric struct {
	name  string
	value float64
	unit  string
}

func timeSetup(w benchWorkload) (float64, error) {
	start := time.Now()
	if err := w.setup(); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// timedRun is the untraced run: set-up (timed, and repeated in fresh child
// processes), oracle, then the measured units.
func timedRun(opt options, w benchWorkload, stderr io.Writer) (report, error) {
	rep := newReport(opt, w)
	s, err := timeSetup(w)
	if err != nil {
		return rep, err
	}
	var setups []float64
	var clock machine
	for total := 0.0; len(setups) < setupSamples || total < setupSeconds && len(setups) < maxSetupSamples; {
		clock.sample(2)
		s, err := childSetup(opt)
		if err != nil {
			return rep, err
		}
		setups = append(setups, s)
		total += s
	}
	if err := w.oracle(); err != nil {
		return rep, fmt.Errorf("oracle: %w", err)
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: set-up %.3fs; measuring %ds\n", opt.workload, opt.seed, s, opt.seconds)
	out, err := w.measure(time.Now().Add(time.Duration(opt.seconds)*time.Second), nil)
	if err != nil {
		return rep, err
	}
	rep.fill(out)
	rep.add(metric{"setup_s", clock.scale() * median(setups), "s"})
	rep.add(metric{"peak_heap_mb", median(out.peakHeapMB), "MB"})
	for _, m := range out.metrics {
		rep.add(m)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("setup_s samples: %.4f; reference seconds: %.5f", setups, clock.refs))
	return rep, nil
}

// childSetup times one cold set-up in a fresh process running this binary.
func childSetup(opt options) (float64, error) {
	v, err := child("--workload", opt.workload, "--seed", strconv.FormatUint(opt.seed, 10), "--setup-only")
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// childValidate measures the sampled tier on its validation set in a fresh
// process, so that neither its memory nor its traces stay in the
// workload's process. The figure is deterministic, so it is measured once
// per build of the benchmark and kept under outRoot (see buildCache).
func childValidate() (errPct, coverage float64, err error) {
	path, err := buildCache("validation")
	if err != nil {
		return 0, 0, err
	}
	var v []float64
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &v) == nil && len(v) == 2 {
		return v[0], v[1], nil
	}
	if v, err = child("--validate-sampling"); err != nil {
		return 0, 0, err
	}
	if len(v) != 2 {
		return 0, 0, fmt.Errorf("validation child printed %d numbers", len(v))
	}
	b, err := json.Marshal(v)
	if err != nil {
		return 0, 0, err
	}
	return v[0], v[1], writeFileAtomic(path, b)
}

// child runs this binary with args and parses the numbers it prints.
func child(args ...string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	var v []float64
	for _, f := range strings.Fields(string(b)) {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("%s printed %q", strings.Join(args, " "), b)
		}
		v = append(v, x)
	}
	if len(v) == 0 {
		return nil, fmt.Errorf("%s printed nothing", strings.Join(args, " "))
	}
	return v, nil
}

// buildCache returns the path under outRoot where a deterministic result
// named name is kept for this build of the benchmark: the file name carries
// a hash of the running binary, so a rebuilt program never reads a result
// an earlier build computed.
func buildCache(name string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return filepath.Join(outRoot, fmt.Sprintf("%s-%s.json", name, hex.EncodeToString(h.Sum(nil))[:16])), nil
}

// writeFileAtomic writes b to path through a temporary file and a rename.
func writeFileAtomic(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// tracedRun is the separate traced run. Its first half measures the
// workload with tracing off and its second half with spans and the CPU
// profile on; the difference is the tracing overhead. Then every layer is
// timed on the workload's own streams. Spans and the profile are written
// when the run ends.
func tracedRun(opt options, w benchWorkload, stderr io.Writer) (report, error) {
	rep := newReport(opt, w)
	if _, err := timeSetup(w); err != nil {
		return rep, err
	}
	if err := w.oracle(); err != nil {
		return rep, fmt.Errorf("oracle: %w", err)
	}
	half := time.Duration(opt.seconds) * time.Second / 2
	plain, err := w.measure(time.Now().Add(half), nil)
	if err != nil {
		return rep, err
	}
	dir := filepath.Join(outRoot, fmt.Sprintf("trace-%s-seed%d", opt.workload, opt.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rep, err
	}
	tr := newTracer()
	prof, err := startProfile(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return rep, err
	}
	traced, err := w.measure(time.Now().Add(half), tr)
	if perr := prof.stop(); err == nil && perr != nil {
		err = perr
	}
	if err != nil {
		return rep, err
	}
	rep.fill(plain)
	rep.fill(traced)
	shares, err := packageShares(prof.path)
	if err != nil {
		return rep, err
	}
	for _, pkg := range profiledPackages {
		rep.add(metric{pkg + ".cpu_share", shares[pkg], "fraction"})
	}
	rep.add(metric{"tracing_overhead_pct", 100 * (traced.unitCostS - plain.unitCostS) / plain.unitCostS, "%"})
	for _, m := range traced.layers {
		rep.add(m)
	}
	fmt.Fprintf(stderr, "perfbench: %s: timing layers\n", opt.workload)
	layers, err := timeLayers(w.streams(), tr)
	if err != nil {
		return rep, err
	}
	for _, m := range layers {
		rep.add(m)
	}
	svc, err := timeServices(tr)
	if err != nil {
		return rep, err
	}
	for _, m := range svc {
		rep.add(m)
	}
	if err := tr.write(filepath.Join(dir, "spans.json")); err != nil {
		return rep, err
	}
	rep.Notes = append(rep.Notes, "spans and CPU profile in "+dir)
	return rep, nil
}

// report is one run's result with its environment fingerprint; it is saved
// under .bench_out and is what compare reads.
type report struct {
	Fingerprint map[string]string `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Problems    []string          `json:"problems,omitempty"`
	Metrics     []reportMetric    `json:"metrics"`
	Notes       []string          `json:"notes,omitempty"`
	trace       bool
	path        string
}

type reportMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(opt options, w benchWorkload) report {
	f := map[string]string{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"num_cpu":    strconv.Itoa(runtime.NumCPU()),
		"git_rev":    gitRev(),
		"workload":   opt.workload,
		"seed":       strconv.FormatUint(opt.seed, 10),
		"seconds":    strconv.Itoa(opt.seconds),
		"trace":      strconv.FormatBool(opt.trace),
	}
	w.fingerprint(f)
	suffix := ""
	if opt.trace {
		suffix = "-trace"
	}
	return report{
		Fingerprint: f,
		Correct:     true,
		trace:       opt.trace,
		path:        filepath.Join(outRoot, fmt.Sprintf("%s-seed%d%s.json", opt.workload, opt.seed, suffix)),
	}
}

func (r *report) fill(o outcome) {
	r.Attempted += o.attempted
	r.Notes = append(r.Notes, o.notes...)
	r.Failed += o.failed
	for _, p := range o.problems {
		if len(r.Problems) == maxProblems {
			r.Problems = append(r.Problems, "(further problems omitted)")
		}
		if len(r.Problems) <= maxProblems {
			r.Problems = append(r.Problems, p)
		}
	}
	if len(o.problems) > 0 || o.failed > 0 || o.attempted == 0 {
		r.Correct = false
	}
}

// add records a metric. A value that is not a finite number marks the run
// incorrect and is recorded as 0 (JSON has no NaN).
func (r *report) add(m metric) {
	if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
		r.Correct = false
		r.Problems = append(r.Problems, fmt.Sprintf("metric %s is %v", m.name, m.value))
		m.value = 0
	}
	r.Metrics = append(r.Metrics, reportMetric{m.name, m.value, m.unit})
}

func (r *report) save() error {
	if err := os.MkdirAll(outRoot, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.path, append(b, '\n'), 0o644)
}

// print writes one human-readable line per metric, then the fingerprint,
// then the result object as the last line.
func (r *report) print(w io.Writer) {
	keys := make([]string, 0, len(r.Fingerprint))
	for k := range r.Fingerprint {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var fp []string
	for _, k := range keys {
		fp = append(fp, k+"="+r.Fingerprint[k])
	}
	fmt.Fprintln(w, "fingerprint:", strings.Join(fp, " "))
	for _, p := range r.Problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-36s %14.6g %s\n", "failed_frac", frac, "fraction")
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jm{}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.Name, m.Value, m.Unit)
		metrics[m.Name] = jm{m.Value, m.Unit}
	}
	fmt.Fprintf(w, "report written to %s\n", r.path)
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain structs of numbers and strings always encode
	}
	fmt.Fprintln(w, string(b))
}

// gitRev reads the checked-out commit without running git; a checkout
// without .git reports "none".
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// fingerprintMismatch lists the fingerprint fields on which two reports
// differ. The git revision is expected to differ between the two sides of
// a comparison and is not part of the match.
func fingerprintMismatch(a, b map[string]string) []string {
	var diff []string
	seen := map[string]bool{}
	for _, m := range []map[string]string{a, b} {
		for k := range m {
			if seen[k] || k == "git_rev" {
				continue
			}
			seen[k] = true
			if a[k] != b[k] {
				diff = append(diff, fmt.Sprintf("%s: %q vs %q", k, a[k], b[k]))
			}
		}
	}
	sort.Strings(diff)
	return diff
}

// compareMain diffs two saved reports metric by metric. It refuses when
// their fingerprints differ: budgets, CPU counts, Go versions, workloads
// or seeds that do not match make the difference meaningless.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare old.json new.json")
		return 2
	}
	var reps [2]report
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 1
		}
	}
	if diff := fingerprintMismatch(reps[0].Fingerprint, reps[1].Fingerprint); len(diff) > 0 {
		fmt.Fprintln(stderr, "perfbench compare: refusing to compare runs with different fingerprints:")
		for _, d := range diff {
			fmt.Fprintln(stderr, "  "+d)
		}
		return 3
	}
	old := map[string]float64{}
	for _, m := range reps[0].Metrics {
		old[m.Name] = m.Value
	}
	for _, m := range reps[1].Metrics {
		o, ok := old[m.Name]
		if !ok {
			continue
		}
		pct := "n/a"
		if o != 0 {
			pct = fmt.Sprintf("%+.1f%%", 100*(m.Value-o)/o)
		}
		fmt.Fprintf(stdout, "%-36s %14.6g -> %14.6g %s  %s\n", m.Name, o, m.Value, m.Unit, pct)
	}
	return 0
}

// median of a sample (NaN-free); it does not modify its argument.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
