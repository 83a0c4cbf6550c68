package sim

import (
	"fmt"
	"reflect"

	"flywheel/internal/branch"
	"flywheel/internal/mem"
	"flywheel/internal/power"
)

// counters is the architecture-independent counter record every Result is
// built from: the final record of an exact run, or the summed window
// deltas of a sampled one. Every field is a plain counter or a struct or
// array of counters, and none copies another (retirements, back-end cycles
// and time live in Act only; conditional branches in Pred only), so an
// interval's record is the fieldwise difference of two cumulative records.
type counters struct {
	Act         power.Activity
	ReplayPS    int64 // time spent in Execution Cache replay
	Mispredicts uint64
	Divergences uint64
	Pred        branch.Stats
	Prefetch    mem.PrefetchStats
	Demand      mem.DemandStats
}

// resultFrom fills a Result for cfg from one counter record. Ratios are
// derived from the record's raw counts; energy is left to the caller,
// which knows whether the record is one whole run or a sum of windows.
func resultFrom(cfg RunConfig, c counters) Result {
	r := Result{
		Config:           cfg,
		TimePS:           c.Act.TimePS,
		Cycles:           c.Act.BECycles,
		Retired:          c.Act.Retires,
		Divergences:      c.Divergences,
		Mispredicts:      c.Mispredicts,
		BranchAccuracy:   c.Pred.Accuracy(),
		CondBranches:     c.Pred.CondBranches,
		PrefetchIssued:   c.Prefetch.Issued,
		PrefetchUseful:   c.Prefetch.Useful,
		PrefetchLate:     c.Prefetch.Late,
		PrefetchAccuracy: c.Prefetch.Accuracy(),
		PrefetchCoverage: c.Prefetch.Coverage(),
		AvgDataCycles:    c.Demand.AvgDataCycles(),
		DemandL2HitRate:  c.Demand.L2HitRate(),
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Retired) / float64(r.Cycles)
	}
	if r.TimePS > 0 {
		r.ECResidency = float64(c.ReplayPS) / float64(r.TimePS)
	}
	return r
}

// diff returns the fieldwise difference a - b.
func diff(a, b counters) counters { return combine(a, b, false) }

// sum returns the fieldwise sum a + b.
func sum(a, b counters) counters { return combine(a, b, true) }

// combine adds or subtracts every integer field of two records, through
// nested structs and arrays. It uses reflection so that a counter added to
// any block of the record needs no edit here; it runs only at sampling
// window marks, never per instruction.
func combine(a, b counters, add bool) counters {
	var out counters
	combineValue(reflect.ValueOf(&out).Elem(), reflect.ValueOf(a), reflect.ValueOf(b), add)
	return out
}

func combineValue(out, a, b reflect.Value, add bool) {
	switch out.Kind() {
	case reflect.Struct:
		for i := range out.NumField() {
			combineValue(out.Field(i), a.Field(i), b.Field(i), add)
		}
	case reflect.Array:
		for i := range out.Len() {
			combineValue(out.Index(i), a.Index(i), b.Index(i), add)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if add {
			out.SetInt(a.Int() + b.Int())
		} else {
			out.SetInt(a.Int() - b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if add {
			out.SetUint(a.Uint() + b.Uint())
		} else {
			out.SetUint(a.Uint() - b.Uint())
		}
	default:
		panic(fmt.Sprintf("sim: counter record holds a non-counter field of type %s", out.Type()))
	}
}
