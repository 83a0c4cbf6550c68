// Command labcoord fronts a cluster of labd workers as one lab: it
// consistent-hashes sweep jobs across the workers (each owning its own
// store shard) and streams back a single merged, job-ordered NDJSON
// response. The coordinator speaks the same protocol as
// a single labd, so existing clients point at a cluster unchanged.
//
// Usage:
//
//	labd -addr 127.0.0.1:8081 -store /srv/flywheel -shard 0 &
//	labd -addr 127.0.0.1:8082 -store /srv/flywheel -shard 1 &
//	labcoord -addr 127.0.0.1:8080 \
//	  -workers http://127.0.0.1:8081,http://127.0.0.1:8082
//
//	curl -s -X POST localhost:8080/v1/sweep -d '{"jobs":[...]}'
//	curl -s localhost:8080/v1/stats   # cluster-wide, per-worker breakdown
//
// Failure policy: a transport failure moves the job to the next ring
// replica after a jittered delay (-retry-backoff), hedged duplicate
// requests go out when a shard runs past its p99, per-job deadlines make a
// stalled worker fail over instead of hanging a sweep, in-flight jobs per
// shard are bounded with 503 + Retry-After once -max-pending is exceeded,
// and idle shards steal from skewed ones. POST /v1/scrub fans an integrity
// audit out to every worker. See DESIGN.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"flywheel/internal/fabric"
	"flywheel/internal/labd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// control mirrors cmd/labd's test hook: ready reports the bound address,
// closing stop drains gracefully like SIGTERM.
type control struct {
	ready chan<- string
	stop  <-chan struct{}
}

func run(args []string, stdout, stderr io.Writer, ctl *control) int {
	fs := flag.NewFlagSet("labcoord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers  = fs.String("workers", "", "comma-separated labd base URLs (required)")
		replicas = fs.Int("replicas", 2, "ring owners per key: failover/hedging width")
		vnodes   = fs.Int("vnodes", 64, "virtual nodes per worker on the hash ring")
		inflight = fs.Int("max-inflight", 4, "concurrent requests per worker shard")
		pending  = fs.Int("max-pending", 16384, "admitted-job cap before /v1/sweep sheds load with 503")
		hedge    = fs.Duration("hedge-min", 250*time.Millisecond, "minimum stall before hedging a job to a replica (0 disables hedging)")
		backoff  = fs.Duration("retry-backoff", 50*time.Millisecond, "delay before a failed shard request moves to the next replica (jittered over its upper half)")
		jobto    = fs.Duration("job-timeout", 2*time.Minute, "per-job deadline on a single worker request; an accepted-but-stalled job fails over to a replica (0 = default, negative disables)")
		wait     = fs.Duration("wait", 10*time.Second, "how long to wait at startup for every worker to report healthy (0 skips the gate)")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "labcoord: unexpected arguments %v\n", fs.Args())
		return 2
	}
	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(stderr, "labcoord: -workers is required")
		return 2
	}

	// The flag's 0 disables hedging; the option spells that negative,
	// keeping its zero for the default.
	hedgeMin := *hedge
	if hedgeMin == 0 {
		hedgeMin = -1
	}
	// The coordinator logs from concurrent job goroutines; stderr need not
	// be safe for concurrent writes.
	var logMu sync.Mutex
	coord, err := fabric.New(fabric.Options{
		Workers:             urls,
		Replicas:            *replicas,
		VNodes:              *vnodes,
		MaxInFlightPerShard: *inflight,
		MaxPending:          *pending,
		HedgeDelayMin:       hedgeMin,
		RetryBackoff:        *backoff,
		JobTimeout:          *jobto,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "labcoord:", err)
		return 2
	}

	// Registration gate: do not accept traffic until the cluster answers.
	if *wait > 0 {
		if err := waitForWorkers(coord, *wait); err != nil {
			fmt.Fprintln(stderr, "labcoord:", err)
			return 1
		}
		fmt.Fprintf(stdout, "labcoord: %d workers healthy\n", len(urls))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "labcoord:", err)
		return 1
	}
	fmt.Fprintf(stdout, "labcoord: listening on %s, workers %s\n", ln.Addr(), strings.Join(urls, " "))
	if ctl != nil && ctl.ready != nil {
		ctl.ready <- ln.Addr().String()
	}

	srv := labd.NewHTTPServer(coord.Handler())
	var stop <-chan struct{}
	if ctl != nil {
		stop = ctl.stop
	}
	if err := labd.ServeGracefully(srv, ln, stop, *drain); err != nil {
		fmt.Fprintln(stderr, "labcoord:", err)
		return 1
	}
	fmt.Fprintln(stdout, "labcoord: drained, bye")
	return 0
}

func waitForWorkers(coord *fabric.Coordinator, wait time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	var err error
	for {
		if err = coord.CheckWorkers(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(200 * time.Millisecond):
		}
	}
}
