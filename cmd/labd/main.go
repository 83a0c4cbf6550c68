// Command labd serves the lab as a long-running batch service: a resident
// process that fronts the two-tier run cache over HTTP, so every client —
// CLI invocations, curl, other machines — shares one warm memory tier and
// one persistent store, and each distinct configuration in the paper's
// cross-product simulates exactly once, ever.
//
// Usage:
//
//	labd -addr 127.0.0.1:8080 -store ~/.flywheel-store
//
//	curl -s localhost:8080/v1/stats
//	curl -s -X POST localhost:8080/v1/sweep -d '{"jobs":[
//	  {"Workload":"gcc","Arch":1,"FEBoostPct":50,"BEBoostPct":50,
//	   "MaxInstructions":300000}]}'
//	curl -s 'localhost:8080/v1/frontier?ilp=1,6&fe=0,50,100&n=20000'
//
// As one worker of a labcoord cluster, give each process its own shard of
// a shared store root:
//
//	labd -addr 127.0.0.1:8081 -store /srv/flywheel -shard 0
//	labd -addr 127.0.0.1:8082 -store /srv/flywheel -shard 1
//
// SIGINT/SIGTERM drain gracefully: in-flight sweeps finish streaming
// (bounded by -drain) before the process exits. See DESIGN.md for the
// protocol.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/labd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// control lets tests observe the bound address and stop the server; both
// channels may be nil. Closing stop triggers the same graceful drain as
// SIGTERM.
type control struct {
	ready chan<- string   // receives the bound address once listening
	stop  <-chan struct{} // closing it shuts the server down gracefully
}

// run is the whole command, factored out of main so tests can drive it.
func run(args []string, stdout, stderr io.Writer, ctl *control) int {
	fs := flag.NewFlagSet("labd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		storeDir = fs.String("store", "", "persistent result-store directory (empty = memory only; results die with the process)")
		shard    = fs.Int("shard", -1, "shard index: open <store>/shard-<n> instead of <store> (requires -store; for labcoord clusters)")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
		scrub    = fs.Bool("scrub", false, "one-shot integrity audit: verify every store entry, quarantine corrupt files, exit (0 clean, 3 corruption found; requires -store)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "labd: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *shard >= 0 && *storeDir == "" {
		fmt.Fprintln(stderr, "labd: -shard requires -store")
		return 2
	}
	if *scrub && *storeDir == "" {
		fmt.Fprintln(stderr, "labd: -scrub requires -store")
		return 2
	}

	cache := lab.NewCache()
	if *storeDir != "" {
		dir := *storeDir
		if *shard >= 0 {
			dir = store.ShardDir(dir, *shard)
		}
		st, err := store.Open(dir)
		if err != nil {
			fmt.Fprintln(stderr, "labd:", err)
			return 1
		}
		cache = lab.NewCacheWithStore(st)
		fmt.Fprintf(stdout, "labd: store %s (version %s)\n", st.Dir(), store.Version())
	}

	if *scrub {
		return runScrub(cache, stdout, stderr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "labd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "labd: listening on %s\n", ln.Addr())
	if ctl != nil && ctl.ready != nil {
		ctl.ready <- ln.Addr().String()
	}

	service := labd.NewServer(cache)
	service.SetLogf(func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	})
	srv := labd.NewHTTPServer(service.Handler())
	var stop <-chan struct{}
	if ctl != nil {
		stop = ctl.stop
	}
	if err := labd.ServeGracefully(srv, ln, stop, *drain); err != nil {
		fmt.Fprintln(stderr, "labd:", err)
		return 1
	}
	fmt.Fprintln(stdout, "labd: drained, bye")
	return 0
}

// runScrub audits the opened store offline — same walk the service runs
// for POST /v1/scrub — and reports every quarantined file. Exit code 3
// (not 1, which means "could not run") tells scripts corruption was found
// and moved aside.
func runScrub(cache *lab.Cache, stdout, stderr io.Writer) int {
	service := labd.NewServer(cache)
	service.SetLogf(func(string, ...any) {})
	rep, err := service.Scrub()
	if err != nil {
		fmt.Fprintln(stderr, "labd: scrub:", err)
		return 1
	}
	fmt.Fprintf(stdout, "labd: scrub %s: %d entries checked, %d quarantined\n",
		rep.Dir, rep.Entries, len(rep.Quarantined))
	for _, q := range rep.Quarantined {
		fmt.Fprintf(stdout, "labd: quarantined %s -> %s (%s)\n", q.Path, q.To, q.Reason)
	}
	if len(rep.Quarantined) > 0 {
		return 3
	}
	return 0
}
