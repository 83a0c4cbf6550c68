package flywheel

import (
	"reflect"
	"sync"
	"testing"

	"flywheel/internal/sim"
	"flywheel/internal/trace"
)

func TestRunManyMatchesRun(t *testing.T) {
	cfgs := []Config{
		{Benchmark: "gzip", Arch: ArchBaseline, Instructions: 5_000},
		{Benchmark: "gzip", Arch: ArchFlywheel, FEBoostPct: 50, BEBoostPct: 50, Instructions: 5_000},
		{Benchmark: "vpr", Arch: ArchBaseline, Instructions: 5_000},
	}
	batch, err := RunMany(cfgs, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(cfgs) {
		t.Fatalf("len(results) = %d, want %d", len(batch), len(cfgs))
	}
	for i, cfg := range cfgs {
		single, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], single) {
			t.Errorf("result %d differs between RunMany and Run:\nbatch:  %+v\nsingle: %+v", i, batch[i], single)
		}
	}
}

func TestRunManyDeterministicAndDeduplicated(t *testing.T) {
	// The same configuration three times, plus the same one spelled with
	// explicit defaults — all four must return identical results.
	cfgs := []Config{
		{Benchmark: "parser", Instructions: 5_000},
		{Benchmark: "parser", Instructions: 5_000},
		{Benchmark: "parser", Instructions: 5_000},
		{Benchmark: "parser", Node: Node130, Instructions: 5_000},
	}
	res, err := RunMany(cfgs, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if !reflect.DeepEqual(res[0], res[i]) {
			t.Errorf("result %d differs from result 0 for identical configs", i)
		}
	}
}

func TestRunManyProgressAndErrors(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	cfgs := []Config{
		{Benchmark: "gzip", Instructions: 5_000},
		{Benchmark: "vpr", Instructions: 5_000},
	}
	_, err := RunMany(cfgs, SweepOptions{Progress: func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if total != len(cfgs) {
			t.Errorf("total = %d, want %d", total, len(cfgs))
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if calls != len(cfgs) {
		t.Errorf("progress called %d times, want %d", calls, len(cfgs))
	}
	mu.Unlock()

	if _, err := RunMany([]Config{{Benchmark: "nope", Instructions: 5_000}}, SweepOptions{}); err == nil {
		t.Error("no error for unknown benchmark")
	}
}

func TestSweepShape(t *testing.T) {
	benches := []string{"gzip", "vpr"}
	boosts := []int{0, 50}
	res, err := Sweep(Config{Arch: ArchFlywheel, BEBoostPct: 50, Instructions: 5_000},
		benches, boosts, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(benches) {
		t.Fatalf("len(res) = %d, want %d", len(res), len(benches))
	}
	for i, row := range res {
		if len(row) != len(boosts) {
			t.Fatalf("len(res[%d]) = %d, want %d", i, len(row), len(boosts))
		}
		for j, r := range row {
			if r.Retired < 5_000 {
				t.Errorf("res[%d][%d] retired %d, want >= 5000", i, j, r.Retired)
			}
		}
		// A faster front end must not meaningfully slow the flywheel down
		// (tiny budgets allow a little mispredict-timing noise).
		if float64(row[1].TimePS) > float64(row[0].TimePS)*1.05 {
			t.Errorf("%s: FE+50%% time %d ps well above FE+0%% time %d ps", benches[i], row[1].TimePS, row[0].TimePS)
		}
	}
}

// TestRunManyKeepsTraceCachePolicy: the trace-cache policy is process-wide
// and set only through sim.SetTraceCachePolicy, so a local sweep must
// leave it as it found it.
func TestRunManyKeepsTraceCachePolicy(t *testing.T) {
	prev := sim.TraceCachePolicy()
	t.Cleanup(func() { sim.SetTraceCachePolicy(prev) })
	want := trace.Policy{Disabled: true, MaxBytes: 1 << 20}
	sim.SetTraceCachePolicy(want)
	if _, err := RunMany([]Config{{Benchmark: "gzip", Instructions: 2_000}}, SweepOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if got := sim.TraceCachePolicy(); got != want {
		t.Fatalf("RunMany reset the trace-cache policy to %+v, want %+v", got, want)
	}
}
