// Command labload drives a labd worker or a labcoord cluster with a
// replayed mix of sweep and frontier requests and reports what the paper's
// users actually feel: request latency (p50/p95/p99), error rate, and how
// the lab's cache tiers absorbed the load (memory hits vs disk hits vs
// fresh simulations vs results priced from a shared timing record).
//
// Popularity is Zipf-skewed — a handful of configurations dominate, the
// long tail trickles — which is both how real sweep traffic looks and the
// worst case for a sharded fabric, since hot keys pile onto one worker and
// exercise its stealing and hedging paths.
//
// With -chaos it doubles as a self-checking failure drill: a seeded fault
// injector sits between the generator and the service, dropping requests,
// synthesizing 5xx and cutting NDJSON streams mid-flight, and the run
// reports how many cuts the client's resume path absorbed (-minresumes
// turns that into a pass/fail gate for CI).
//
// Usage:
//
//	labload -url http://127.0.0.1:8080 -c 8 -n 200 -batch 4 -zipf 1.2
//	labload -url http://127.0.0.1:8080 -n 100 -chaos 7 -minresumes 1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flywheel/internal/chaos"
	"flywheel/internal/lab"
	"flywheel/internal/labd"
	"flywheel/internal/sim"
	"flywheel/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sample is one finished request.
type sample struct {
	latency time.Duration
	jobs    int
	err     bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("labload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url      = fs.String("url", "http://127.0.0.1:8080", "labd or labcoord base URL")
		conc     = fs.Int("c", 4, "concurrent clients")
		total    = fs.Int("n", 100, "total requests to issue")
		batch    = fs.Int("batch", 4, "jobs per sweep request")
		space    = fs.Int("space", 64, "distinct configurations in the job universe")
		zipfS    = fs.Float64("zipf", 1.2, "Zipf skew of configuration popularity (>1; 0 = uniform)")
		frontier = fs.Float64("frontier", 0.1, "fraction of requests that are /v1/frontier queries")
		ninstr   = fs.Int("ninstr", 20000, "instructions per simulated job")
		seed     = fs.Int64("seed", 1, "random seed (runs are reproducible)")
		timeout  = fs.Duration("timeout", 2*time.Minute, "per-request timeout")
		chaosSee = fs.Uint64("chaos", 0, "inject seeded transport faults (drops, 5xx, mid-stream cuts, delays) into this run's requests; 0 disables")
		minRes   = fs.Int("minresumes", 0, "fail the run unless at least this many stream resumes happened (chaos drill gate)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "labload: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *conc < 1 || *total < 1 || *batch < 1 || *space < 2 {
		fmt.Fprintln(stderr, "labload: -c, -n, -batch must be >= 1 and -space >= 2")
		return 2
	}
	if *zipfS != 0 && *zipfS <= 1 {
		fmt.Fprintln(stderr, "labload: -zipf must be > 1 (or 0 for uniform)")
		return 2
	}
	if *frontier < 0 || *frontier > 1 {
		fmt.Fprintln(stderr, "labload: -frontier must be in [0,1]")
		return 2
	}

	universe := buildUniverse(*space, *ninstr)
	client := labd.NewClient(*url)
	var injector *chaos.RoundTripper
	if *chaosSee != 0 {
		// A mix that leans on every recovery path: resumable stream cuts
		// dominate, with a sprinkle of connection drops, synthesized 5xx
		// (including 503s that exercise the shed/retry loop), and delays.
		injector = chaos.New(chaos.Plan{
			Seed:     *chaosSee,
			Drop:     0.03,
			Err5xx:   0.03,
			Truncate: 0.10,
			Delay:    0.05,
			MaxDelay: 50 * time.Millisecond,
			// Sweeps only: the bracketing /v1/stats calls must stay
			// reliable or the report itself becomes flaky.
			PathSubstr: "/v1/sweep",
		}, nil)
		client.HTTPClient = &http.Client{Transport: injector}
	}

	before, err := client.Stats()
	if err != nil {
		fmt.Fprintf(stderr, "labload: %s unreachable: %v\n", *url, err)
		return 1
	}

	var (
		issued  atomic.Int64
		shed    atomic.Uint64
		mu      sync.Mutex
		samples []sample
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			var zipf *rand.Zipf
			if *zipfS != 0 {
				zipf = rand.NewZipf(rng, *zipfS, 1, uint64(len(universe)-1))
			}
			pick := func() lab.Job {
				if zipf != nil {
					return universe[zipf.Uint64()]
				}
				return universe[rng.Intn(len(universe))]
			}
			var local []sample
			for issued.Add(1) <= int64(*total) {
				local = append(local, oneRequest(client, rng, pick, *batch, *frontier, *timeout, &shed))
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := client.Stats()
	if err != nil {
		fmt.Fprintf(stderr, "labload: final stats: %v\n", err)
		return 1
	}
	report(stdout, samples, elapsed, shed.Load(), before.Cache, after.Cache)
	if injector != nil {
		fmt.Fprintf(stdout, "chaos: %s; client resumed %d truncated streams\n", injector.Counts(), client.Resumes())
	}
	if int(client.Resumes()) < *minRes {
		fmt.Fprintf(stderr, "labload: only %d stream resumes, -minresumes wanted %d\n", client.Resumes(), *minRes)
		return 1
	}
	return 0
}

// buildUniverse lays a deterministic grid of n configurations over the
// registered workloads and the paper's FE/BE boost axes.
func buildUniverse(n, ninstr int) []lab.Job {
	names := workload.Names()
	jobs := make([]lab.Job, 0, n)
	for i := 0; len(jobs) < n; i++ {
		jobs = append(jobs, lab.Job{
			Workload:        names[i%len(names)],
			Arch:            sim.ArchFlywheel,
			FEBoostPct:      (i / len(names) * 7) % 100,
			BEBoostPct:      50,
			MaxInstructions: uint64(ninstr),
		})
	}
	return jobs
}

// oneRequest issues a single sweep or frontier request, retrying while the
// service sheds load with 503 + Retry-After.
func oneRequest(client *labd.Client, rng *rand.Rand, pick func() lab.Job, batch int, frontierFrac float64, timeout time.Duration, shed *atomic.Uint64) sample {
	isFrontier := rng.Float64() < frontierFrac
	var jobs []lab.Job
	var params map[string]string
	if isFrontier {
		params = map[string]string{
			"ilp": "1", "entropy": "0", "mem": "4", "code": "1", "passes": "1",
			"fe": "0," + strconv.Itoa(rng.Intn(20)*5),
			"n":  strconv.FormatUint(pick().MaxInstructions, 10),
		}
	} else {
		jobs = make([]lab.Job, batch)
		for i := range jobs {
			jobs[i] = pick()
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	for {
		var err error
		if isFrontier {
			_, err = client.FrontierContext(ctx, params)
		} else {
			_, err = client.SweepContext(ctx, labd.SweepRequest{Jobs: jobs})
		}
		if labd.IsBackpressure(err) && ctx.Err() == nil {
			shed.Add(1)
			select {
			case <-time.After(50 * time.Millisecond):
				continue
			case <-ctx.Done():
			}
		}
		return sample{latency: time.Since(start), jobs: len(jobs), err: err != nil}
	}
}

func report(w io.Writer, samples []sample, elapsed time.Duration, shed uint64, before, after lab.Stats) {
	var lats []time.Duration
	var errs, jobs int
	for _, s := range samples {
		errs += btoi(s.err)
		jobs += s.jobs
		if !s.err {
			lats = append(lats, s.latency)
		}
	}
	fmt.Fprintf(w, "labload: %d requests in %.2fs (%.1f req/s), %d jobs, %d errors (%.2f%%), %d shed+retried\n",
		len(samples), elapsed.Seconds(), float64(len(samples))/elapsed.Seconds(),
		jobs, errs, 100*float64(errs)/float64(len(samples)), shed)

	if len(lats) > 0 {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		fmt.Fprintf(w, "latency: p50 %s  p95 %s  p99 %s  (min %s, max %s)\n",
			pct(lats, 50), pct(lats, 95), pct(lats, 99), lats[0].Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
	}

	hits := after.Hits - before.Hits
	disk := after.DiskHits - before.DiskHits
	miss := after.Misses - before.Misses
	repriced := after.Repriced - before.Repriced
	if tot := hits + disk + miss + repriced; tot > 0 {
		fmt.Fprintf(w, "cache tiers: memory %.1f%%  disk %.1f%%  sim %.1f%%  repriced %.1f%%  (%d lookups)\n",
			100*float64(hits)/float64(tot), 100*float64(disk)/float64(tot), 100*float64(miss)/float64(tot),
			100*float64(repriced)/float64(tot), tot)
	}
}

func pct(sorted []time.Duration, q int) time.Duration {
	i := len(sorted) * q / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Round(time.Microsecond)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
