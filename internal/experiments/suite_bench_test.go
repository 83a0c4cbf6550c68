package experiments

// Suite-regeneration benchmarks: the acceptance check that running the
// Figure 11-15 experiment suite through the lab with a full worker pool
// beats the serial path. Run with:
//
//	go test ./internal/experiments -bench Suite -benchtime 2x
//
// On a multi-core machine BenchmarkSuiteWorkersMax should beat
// BenchmarkSuiteWorkers1 roughly by the core count (the jobs are
// independent); BenchmarkSuiteWarmCache shows the memoization floor — the
// whole suite served from cache. Each also reports allocations and GC
// cycles per suite pass (B/op, allocs/op, gc/op), so a per-run allocation
// regression shows up here without the repository benchmark.

import (
	"runtime"
	"testing"

	"flywheel/internal/cacti"
	"flywheel/internal/lab"
	"flywheel/internal/sim"
	"flywheel/internal/workload"
)

func benchSuite(b *testing.B, workers int, cache *lab.Cache) {
	jobs := SuiteJobs(tinyOptions())
	benchPasses(b, func() error {
		c := cache
		if c == nil {
			c = lab.NewCache()
		}
		_, err := lab.Run(jobs, lab.Options{Workers: workers, Cache: c})
		return err
	})
}

// benchPasses times b.N calls of pass and reports B/op, allocs/op and the
// garbage collections per pass (gc/op).
func benchPasses(b *testing.B, pass func() error) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pass(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
}

func BenchmarkSuiteWorkers1(b *testing.B) { benchSuite(b, 1, nil) }

func BenchmarkSuiteWorkersMax(b *testing.B) { benchSuite(b, runtime.GOMAXPROCS(0), nil) }

// BenchmarkSuiteWarmCache measures the memoized path: every job of the
// suite already cached from a priming run.
func BenchmarkSuiteWarmCache(b *testing.B) {
	cache := lab.NewCache()
	if _, err := lab.Run(SuiteJobs(tinyOptions()), lab.Options{Cache: cache}); err != nil {
		b.Fatal(err)
	}
	benchSuite(b, runtime.GOMAXPROCS(0), cache)
}

// BenchmarkPaperPass is one pass of the repository benchmark's paper-exact
// workload (perfbench): Figures 2, 11, 12-14 (the sweep) and 15 at 40k
// instructions through the lab with 2 workers and a fresh memo cache, so
// every pass simulates every distinct timing again. Each workload's trace
// is recorded before the timer starts, as in perfbench's set-up, so the
// passes replay traces through the exact timing cores.
func BenchmarkPaperPass(b *testing.B) {
	opt := Options{Instructions: 40_000, Node: cacti.Node130, Parallel: 2}
	for _, name := range workload.Names() {
		cfg := sim.RunConfig{Workload: name, Arch: sim.ArchBaseline, Node: opt.Node, MaxInstructions: opt.Instructions}
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	benchPasses(b, func() error {
		opt.Cache = lab.NewCache()
		if _, err := Figure2(opt); err != nil {
			return err
		}
		if _, err := Figure11(opt); err != nil {
			return err
		}
		if _, err := Sweep(opt); err != nil {
			return err
		}
		_, err := Figure15(opt)
		return err
	})
}
