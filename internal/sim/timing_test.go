package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"flywheel/internal/cacti"
	"flywheel/internal/pipe"
	"flywheel/internal/workload"
)

// timingVariants are the machine configurations the node-invariance test
// covers: the baseline and its Figure 2 variants, the Register Allocation
// configuration, and the Flywheel at two clock ratios.
var timingVariants = []struct {
	name string
	cfg  RunConfig
}{
	{"baseline", RunConfig{Arch: ArchBaseline}},
	{"baseline+fes", RunConfig{Arch: ArchBaseline, ExtraFrontEndStages: 1}},
	{"baseline+pws", RunConfig{Arch: ArchBaseline, PipelinedWakeupSelect: true}},
	{"regalloc/fe0/be0", RunConfig{Arch: ArchRegAlloc}},
	{"flywheel/fe100/be50", RunConfig{Arch: ArchFlywheel, FEBoostPct: 100, BEBoostPct: 50}},
	{"flywheel/fe50/be50", RunConfig{Arch: ArchFlywheel, FEBoostPct: 50, BEBoostPct: 50}},
}

var timingNodes = []cacti.Node{cacti.Node130, cacti.Node90, cacti.Node60}

// inGrains returns t's counter record with its picosecond fields in units
// of t's grain, failing if a field is not a whole number of grains.
func inGrains(t *testing.T, tm Timing) pipe.Counters {
	t.Helper()
	c := tm.c
	for _, ps := range []*int64{&c.TimePS, &c.ReplayPS} {
		if *ps%tm.grain != 0 {
			t.Fatalf("%v: %d ps is not a whole number of %d ps grains", tm.id, *ps, tm.grain)
		}
		*ps /= tm.grain
	}
	return c
}

// TestTimingNodeInvariance: for every paper workload and machine variant
// across the Figure 15 nodes, runs with equal timing identities have equal
// counter records once the picosecond fields are scaled to a common grain,
// and pricing a run's own record reproduces Run byte for byte.
func TestTimingNodeInvariance(t *testing.T) {
	const insts = 8_000
	shared := map[string]int{}
	for _, wl := range workload.Names() {
		for _, v := range timingVariants {
			var recs []Timing
			for _, node := range timingNodes {
				cfg := v.cfg
				cfg.Workload, cfg.Node, cfg.MaxInstructions = wl, node, insts
				tm, err := Simulate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if id, err := TimingOf(cfg); err != nil || id != tm.id {
					t.Fatalf("%s/%s@%v: TimingOf = %v, %v; Simulate recorded %v", wl, v.name, node, id, err, tm.id)
				}
				priced, err := tm.Price(cfg)
				if err != nil {
					t.Fatal(err)
				}
				run, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				pj, _ := json.Marshal(priced)
				rj, _ := json.Marshal(run)
				if !bytes.Equal(pj, rj) {
					t.Fatalf("%s/%s@%v: pricing the run's own record differs from Run:\n price %s\n run   %s", wl, v.name, node, pj, rj)
				}
				for k, prev := range recs {
					if prev.id != tm.id {
						continue
					}
					shared[v.name+"@"+node.String()]++
					if inGrains(t, prev) != inGrains(t, tm) || prev.shape != tm.shape {
						t.Errorf("%s/%s: %v and %v share a timing identity but their records differ",
							wl, v.name, timingNodes[k], node)
					}
				}
				recs = append(recs, tm)
			}
		}
	}
	// The baseline and regalloc variants share across all three nodes (at
	// 60 nm with both 130 and 90 nm). The Flywheel variants share between
	// 130 and 60 nm only: their 90 nm back-end periods round (434 ps =
	// 652 ps / 1.5).
	n := len(workload.Names())
	want := map[string]int{
		"baseline@0.09um": n, "baseline@0.06um": 2 * n,
		"baseline+fes@0.09um": n, "baseline+fes@0.06um": 2 * n,
		"baseline+pws@0.09um": n, "baseline+pws@0.06um": 2 * n,
		"regalloc/fe0/be0@0.09um": n, "regalloc/fe0/be0@0.06um": 2 * n,
		"flywheel/fe100/be50@0.06um": n,
		"flywheel/fe50/be50@0.06um":  n,
	}
	for k, w := range want {
		if shared[k] != w {
			t.Errorf("%s: %d shared records, want %d", k, shared[k], w)
		}
	}
	if len(shared) != len(want) {
		t.Errorf("shared records %v, want exactly %v", shared, want)
	}
}

// TestTimingPlanRounding pins the case the reduced plan exists for: the
// Flywheel at (FE+100%, BE+50%) shares its timing between 130 and 60 nm,
// whose periods are both (6, 3, 4) grains, but not with 90 nm, whose
// 434 ps back-end period is 652 ps / 1.5 rounded down.
func TestTimingPlanRounding(t *testing.T) {
	id := func(node cacti.Node) TimingID {
		t.Helper()
		id, err := TimingOf(RunConfig{Workload: "gcc", Arch: ArchFlywheel, Node: node, FEBoostPct: 100, BEBoostPct: 50})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	if id(cacti.Node90) == id(cacti.Node130) {
		t.Errorf("90 nm shares the 130 nm timing: %v", id(cacti.Node90))
	}
	if id(cacti.Node60) != id(cacti.Node130) {
		t.Errorf("60 nm %v does not share the 130 nm timing %v", id(cacti.Node60), id(cacti.Node130))
	}
	cfg := RunConfig{Arch: ArchFlywheel, FEBoostPct: 100, BEBoostPct: 50}
	for _, c := range []struct {
		node  cacti.Node
		grain int64
		plan  string
	}{
		// Order: back-end and front-end periods, base period, memory latency.
		{cacti.Node130, 139, "4,3,6,600"},
		{cacti.Node90, 2, "217,163,326,32600"},
		{cacti.Node60, 86, "4,3,6,600"},
	} {
		d, err := newDesign(cfg, cacti.BaselinePeriodPS(c.node))
		if err != nil {
			t.Fatal(err)
		}
		if d.plan.grain != c.grain || d.plan.reduced != c.plan {
			t.Errorf("%v: plan %+v, want grain %d plan %s", c.node, d.plan, c.grain, c.plan)
		}
	}
}

// psValues returns, by reflection, every int64 field or method of v whose
// name ends in "PS", through nested structs: at each struct its methods
// (by name) first, then its fields in declaration order. Methods below an
// unexported field cannot be called and are skipped.
func psValues(v reflect.Value, out []int64) []int64 {
	t := v.Type()
	for i := range t.NumMethod() {
		m := t.Method(i)
		if v.CanInterface() && strings.HasSuffix(m.Name, "PS") && m.Type.NumIn() == 1 && m.Type.NumOut() == 1 && m.Type.Out(0).Kind() == reflect.Int64 {
			out = append(out, v.Method(i).Call(nil)[0].Int())
		}
	}
	for i := range t.NumField() {
		f := t.Field(i)
		switch {
		case f.Type.Kind() == reflect.Struct:
			out = psValues(v.Field(i), out)
		case f.Type.Kind() == reflect.Int64 && strings.HasSuffix(f.Name, "PS"):
			out = append(out, v.Field(i).Int())
		}
	}
	return out
}

// TestClockPlanListsEveryPS guards newDesign's clock-plan lists: every
// period and picosecond latency of a built core configuration, found by
// reflection, must be in its plan, in the same order. A new absolute-time
// parameter that a list omits fails here instead of letting two runs that
// differ in it share a timing record.
func TestClockPlanListsEveryPS(t *testing.T) {
	for _, v := range timingVariants {
		for _, node := range timingNodes {
			for _, boost := range [][2]int{{0, 0}, {25, 50}, {100, 0}, {37, 100}} {
				cfg := v.cfg
				cfg.Workload, cfg.Node = "gcc", node
				if cfg.Arch != ArchBaseline {
					cfg.FEBoostPct, cfg.BEBoostPct = boost[0], boost[1]
				}
				cfg, err := cfg.normalize()
				if err != nil {
					t.Fatal(err)
				}
				d, err := newDesign(cfg, cacti.BaselinePeriodPS(node))
				if err != nil {
					t.Fatal(err)
				}
				coreCfg, least := any(d.core), 4
				if d.arch == ArchBaseline {
					coreCfg, least = d.ooo, 2
				}
				ps := psValues(reflect.ValueOf(coreCfg), nil)
				if len(ps) < least {
					t.Fatalf("%s: reflection found %d picosecond values, want at least %d", v.name, len(ps), least)
				}
				if want := planOf(ps...); d.plan != want {
					t.Errorf("%s at %v, boosts %v: plan %+v, want %+v from every PS value %v", v.name, node, boost, d.plan, want, ps)
				}
			}
		}
	}
}

// priceShared simulates the first run of each timing identity among cfgs
// and prices every run from its identity's record, failing unless the
// priced result is JSON-identical to Run. It returns how many runs were
// priced from another run's record.
func priceShared(t *testing.T, cfgs []RunConfig) int {
	t.Helper()
	recs := map[TimingID]Timing{}
	shared := 0
	for _, cfg := range cfgs {
		id, err := TimingOf(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := recs[id]
		if ok {
			shared++
		} else if rec, err = Simulate(cfg); err != nil {
			t.Fatal(err)
		}
		recs[id] = rec
		priced, err := rec.Price(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pj, _ := json.Marshal(priced)
		rj, _ := json.Marshal(run)
		if !bytes.Equal(pj, rj) {
			t.Fatalf("%+v: priced from %v, differs from Run:\n price %s\n run   %s", cfg, id, pj, rj)
		}
	}
	return shared
}

// TestTimingBoostInvariance: the Register Allocation machine has no
// Execution Cache and so no fast back-end clock, so its identity does not
// depend on the back-end boost, and one record prices every BE setting at
// every node that shares the plan. The Flywheel reads its back-end boost,
// so BE+0% and BE+50% never share.
func TestTimingBoostInvariance(t *testing.T) {
	const insts = 8_000
	var ra []RunConfig
	fw := map[TimingID]int{}
	for _, node := range timingNodes {
		for _, fe := range []int{0, 50} {
			var base TimingID
			for _, be := range []int{0, 50, 100} {
				cfg := RunConfig{Arch: ArchRegAlloc, Node: node, FEBoostPct: fe, BEBoostPct: be, MaxInstructions: insts}
				id, err := TimingOf(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if be == 0 {
					base = id
				} else if id != base {
					t.Errorf("regalloc@%v fe=%d: BE+%d%% has identity %v, BE+0%% %v", node, fe, be, id, base)
				}
				ra = append(ra, cfg)
			}
			for _, be := range []int{0, 50} {
				id, err := TimingOf(RunConfig{Workload: "gcc", Arch: ArchFlywheel, Node: node, FEBoostPct: fe, BEBoostPct: be})
				if err != nil {
					t.Fatal(err)
				}
				fw[id] |= 1 << (be / 50)
			}
		}
	}
	for id, bes := range fw {
		if bes == 3 {
			t.Errorf("Flywheel BE+0%% and BE+50%% share the identity %v", id)
		}
	}
	// Per workload, 18 runs over 3 records: FE+0% shares across all three
	// nodes, FE+50% between 130 and 60 nm (its 90 nm front-end period
	// rounds).
	for _, wl := range workload.Names() {
		cfgs := append([]RunConfig(nil), ra...)
		for i := range cfgs {
			cfgs[i].Workload = wl
		}
		if got := priceShared(t, cfgs); got != len(cfgs)-3 {
			t.Errorf("%s: %d of %d regalloc runs priced from a shared record, want %d", wl, got, len(cfgs), len(cfgs)-3)
		}
	}
}

// TestSampledTimingSharing: sampled baseline, Flywheel and Register
// Allocation runs on the result_golden.json schedule at the Figure 15
// nodes price from shared records exactly as Run computes them. The
// baseline shares across all three nodes; the Flywheel and the Register
// Allocation machine at FE+50% between 130 and 60 nm.
func TestSampledTimingSharing(t *testing.T) {
	samp := Sampling{Period: 4_000, WindowInsts: 1_000, WarmupInsts: 500}
	var cfgs []RunConfig
	for _, arch := range []Arch{ArchBaseline, ArchFlywheel, ArchRegAlloc} {
		for _, node := range timingNodes {
			cfgs = append(cfgs, RunConfig{Workload: "gcc", Arch: arch, Node: node,
				FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 20_000, Sampling: samp})
		}
	}
	if got := priceShared(t, cfgs); got != 4 {
		t.Errorf("%d sampled runs priced from a shared record, want 4", got)
	}
}

// TestPriceRejectsForeignRecord: a record prices only runs with its own
// timing identity: not another plan, and not the other tier.
func TestPriceRejectsForeignRecord(t *testing.T) {
	cfg := RunConfig{Workload: "gcc", Arch: ArchFlywheel, FEBoostPct: 100, BEBoostPct: 50, MaxInstructions: 2_000}
	tm, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Node = cacti.Node90
	if _, err := tm.Price(cfg); err == nil {
		t.Fatal("a 130 nm record priced the rounded 90 nm plan")
	}
	samp := cfg
	samp.Node, samp.MaxInstructions = cacti.Node130, 20_000
	samp.Sampling = Sampling{Period: 4_000, WindowInsts: 1_000, WarmupInsts: 500}
	exact := samp
	exact.Sampling = Sampling{}
	if tm, err = Simulate(exact); err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Price(samp); err == nil {
		t.Fatal("an exact record priced a sampled run")
	}
	if tm, err = Simulate(samp); err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Price(exact); err == nil {
		t.Fatal("a sampled record priced an exact run")
	}
}
