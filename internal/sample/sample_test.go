package sample

import "testing"

func TestNormalize(t *testing.T) {
	if got := (Config{WindowInsts: 5, WarmupInsts: 7, Seed: 9}).Normalize(); got != (Config{}) {
		t.Errorf("disabled config normalizes to %+v, want the zero value", got)
	}
	want := Config{Period: 100_000, WindowInsts: DefaultWindowInsts, WarmupInsts: DefaultWarmupInsts, Seed: 1}
	if got := (Config{Period: 100_000}).Normalize(); got != want {
		t.Errorf("defaults: got %+v, want %+v", got, want)
	}
	set := Config{Period: 9_000, WindowInsts: 1_000, WarmupInsts: 500, Seed: 42}
	if got := set.Normalize(); got != set {
		t.Errorf("explicit fields changed: got %+v, want %+v", got, set)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("disabled config rejected: %v", err)
	}
	c := Config{WindowInsts: 1_000, WarmupInsts: 500, Seed: 1}
	span := c.Span()
	if span != 1_000+500+TailInsts {
		t.Fatalf("span %d", span)
	}
	for _, tc := range []struct {
		period uint64
		ok     bool
	}{{span - 1, false}, {span, false}, {span + 1, true}} {
		c.Period = tc.period
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("period %d (span %d): err %v, want ok=%v", tc.period, span, err, tc.ok)
		}
	}
}

func TestOffsetWithinPeriod(t *testing.T) {
	for _, c := range []Config{
		{Period: 10_000, WindowInsts: 1_000, WarmupInsts: 500},
		{Period: 1_000 + 500 + TailInsts + 1, WindowInsts: 1_000, WarmupInsts: 500},
	} {
		limit := c.Period - c.Span()
		seen := map[uint64]bool{}
		for seed := range uint64(5_000) {
			c.Seed = seed
			off := c.Offset()
			if off > limit {
				t.Fatalf("period %d seed %d: offset %d beyond %d", c.Period, seed, off, limit)
			}
			seen[off] = true
		}
		if len(seen) < 2 {
			t.Errorf("period %d: every seed gave the same offset", c.Period)
		}
	}
}
