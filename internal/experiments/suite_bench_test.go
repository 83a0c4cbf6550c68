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

	"flywheel/internal/lab"
)

func benchSuite(b *testing.B, workers int, cache *lab.Cache) {
	opt := tinyOptions()
	jobs := SuiteJobs(opt)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cache
		if c == nil {
			c = lab.NewCache()
		}
		if _, err := lab.Run(jobs, lab.Options{Workers: workers, Cache: c}); err != nil {
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
