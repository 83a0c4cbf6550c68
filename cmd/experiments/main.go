// Command experiments regenerates the paper's tables and figures.
//
// Examples:
//
//	experiments -fig 1                  # Figure 1 (latency scaling, analytic)
//	experiments -fig t1                 # Table 1 (module frequencies)
//	experiments -fig 12 -n 500000       # Figure 12 (performance sweep)
//	experiments -fig all -md -parallel 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"flywheel/internal/cacti"
	"flywheel/internal/experiments"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/sim"
	"flywheel/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags and regenerates the requested experiments; it is the
// whole command, factored out of main so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "all", "experiment: 1, 2, t1, t2, 11, 12, 13, 14, 15, residency or all (comma-separated)")
		n        = fs.Uint64("n", 300_000, "measured dynamic instructions per run (0 = to completion)")
		node     = fs.Float64("node", 0.13, "technology node in um for figures 2 and 11-14")
		parallel = fs.Int("parallel", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
		markdown = fs.Bool("md", false, "emit markdown tables")

		storeDir   = fs.String("store", "", "persistent result-store directory (empty = in-memory only)")
		storeStats = fs.Bool("storestats", false, "print cache/store statistics to stderr after the run")
	)
	fs.Uint64Var(n, "instructions", 300_000, "alias for -n")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opt := experiments.Options{Instructions: *n, Node: cacti.Node(*node), Parallel: *parallel}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		opt.Cache = lab.NewCacheWithStore(st)
	} else if *storeStats {
		// No persistent tier, but the counters are still wanted: give the
		// run its own observable in-memory cache.
		opt.Cache = lab.NewCache()
	}
	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figures, f) {
			fmt.Fprintf(stderr, "experiments: unknown figure %q (valid: %s)\n", f, strings.Join(figures, ", "))
			return 2
		}
		want[f] = true
	}
	if err := emitFigures(opt, want, *markdown, stdout); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	if *storeStats && opt.Cache != nil {
		fmt.Fprintln(stderr, opt.Cache.StatsLine())
		fmt.Fprintln(stderr, sim.TraceCacheStats())
	}
	return 0
}

// figures are the names -fig accepts.
var figures = []string{"1", "2", "t1", "t2", "11", "12", "13", "14", "15", "residency", "all"}

// emitFigures renders every requested experiment to w.
func emitFigures(opt experiments.Options, want map[string]bool, markdown bool, w io.Writer) error {
	all := want["all"]
	emit := func(t *stats.Table) {
		if markdown {
			fmt.Fprintln(w, t.Markdown())
		} else {
			fmt.Fprintln(w, t.String())
		}
	}

	if all || want["1"] {
		emit(experiments.Figure1())
	}
	if all || want["t1"] {
		emit(experiments.Table1())
	}
	if all || want["t2"] {
		emit(experiments.Table2())
	}
	if all || want["2"] {
		t, err := experiments.Figure2(opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if all || want["11"] {
		t, err := experiments.Figure11(opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if all || want["12"] || want["13"] || want["14"] || want["residency"] {
		d, err := experiments.Sweep(opt)
		if err != nil {
			return err
		}
		if all || want["12"] {
			emit(d.Figure12())
		}
		if all || want["13"] {
			emit(d.Figure13())
		}
		if all || want["14"] {
			emit(d.Figure14())
		}
		if all || want["residency"] {
			emit(d.Residency())
		}
	}
	if all || want["15"] {
		t, err := experiments.Figure15(opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	return nil
}
