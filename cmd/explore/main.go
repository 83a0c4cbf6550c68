// Command explore sweeps the multiple-speed-pipeline design space over
// synthetic workloads: it enumerates a (profile × architecture × FE/BE
// boost × technology node) grid, runs it as one batched, memoized,
// parallel job list, and reports each point's speedup and energy against
// its baseline with the Pareto frontier marked.
//
// Profile knobs take comma-separated lists and cross-product into the
// profile axis. Examples:
//
//	explore -ilp 1,6 -entropy 0,1 -fe 0,50,100         # 4 profiles, 12 points
//	explore -ilp 4 -fp 0,0.5 -node 0.13,0.09 -csv      # CSV to stdout
//	explore -frontier -parallel 8                      # frontier only
//	explore -predictor gshare,tage -prefetcher none,delta  # frontend grid
//	explore -store ~/.flywheel-store                   # persist results;
//	                                                   # a re-run simulates nothing
//
// Large grids can be screened with the two-tier explorer: `-tier analytic`
// calibrates a closed-form model on the space's own profiles, predicts
// every cell, and simulates only the cells near the predicted Pareto
// frontier (plus a random audit sample). `-tier auto` picks a tier by
// comparing the grid size against the calibration cost.
//
//	explore -tier analytic -fe 0,10,...,100 -be 0,25,50,75,100
//	explore -tier auto -margin 0.02 -audit 0.05
//
// Sampled execution trades a small, quantified error for ~5x cheaper
// cycle-accurate cells: each run alternates fast-forwarded functional
// warming with short detailed windows and reports confidence intervals.
// `-tier sampled` runs the whole grid that way; the sampling flags
// (-sample-period, -window, -sample-warmup, -sample-seed) are a usage
// error with any other tier.
//
//	explore -tier sampled -fe 0,25,50,75,100
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"flywheel/internal/explore"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/sim"
	"flywheel/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags and performs the exploration; it is the whole
// command, factored out of main so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	q := explore.DefaultQuery()
	q.Bind(fs)
	var (
		workers = fs.Int("parallel", 0, "simulation worker-pool size (0 = GOMAXPROCS)")

		storeDir   = fs.String("store", "", "persistent result-store directory (empty = in-memory only)")
		storeStats = fs.Bool("storestats", false, "print cache/store statistics to stderr after the run")

		frontierOnly = fs.Bool("frontier", false, "print only the Pareto frontier")
		csvOut       = fs.Bool("csv", false, "emit CSV instead of tables")
		markdown     = fs.Bool("md", false, "emit markdown tables")
	)
	fs.IntVar(&q.MaxPoints, "maxpoints", 0, "grid-size guard (0 = 4096 for -tier exact/sampled, 262144 otherwise)")
	fs.Uint64Var(&q.Instructions, "instructions", q.Instructions, "alias for -n")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	space, err := q.Space()
	if err != nil {
		fmt.Fprintln(stderr, "explore:", err)
		return 2
	}

	opt := explore.Options{Workers: *workers}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(stderr, "explore:", err)
			return 1
		}
		opt.Cache = lab.NewCacheWithStore(st)
	} else if *storeStats {
		// No persistent tier, but the counters are still wanted: give the
		// run its own observable in-memory cache.
		opt.Cache = lab.NewCache()
	}

	out, err := q.Run(space, opt)
	if out != nil && q.Tier == "auto" {
		fmt.Fprintf(stderr, "explore: auto tier: %d grid cells vs %d calibration cells -> %s\n",
			out.GridCells, out.CalibrationCells, out.Tier)
	}
	if err != nil {
		fmt.Fprintln(stderr, "explore:", err)
		return 1
	}
	rep := out.Report
	if out.Tiered != nil {
		fmt.Fprintln(stderr, "explore:", out.Tiered.Summary())
		rep = out.Tiered.ConfirmedReport()
	}
	switch {
	case *csvOut && out.Tiered != nil:
		fmt.Fprint(stdout, out.Tiered.CSV())
	case *csvOut:
		fmt.Fprint(stdout, rep.CSV())
	case *frontierOnly:
		emit(stdout, rep.FrontierTable(), *markdown)
	default:
		emit(stdout, rep.Table(), *markdown)
		emit(stdout, rep.FrontierTable(), *markdown)
	}
	if *storeStats && opt.Cache != nil {
		fmt.Fprintln(stderr, opt.Cache.StatsLine())
		fmt.Fprintln(stderr, sim.TraceCacheStats())
	}
	return 0
}

func emit(w io.Writer, t *stats.Table, markdown bool) {
	if markdown {
		fmt.Fprintln(w, t.Markdown())
	} else {
		fmt.Fprintln(w, t.String())
	}
}
