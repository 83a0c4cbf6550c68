package sim

import (
	"fmt"
	"reflect"

	"flywheel/internal/pipe"
	"flywheel/internal/power"
)

// resultFrom fills a Result for cfg from one counter record: the final
// record of an exact run, or the summed window deltas of a sampled one.
// Ratios are derived from the record's raw counts; energy is left to the
// caller, which knows whether the record is one whole run or a sum of
// windows.
func resultFrom(cfg RunConfig, c pipe.Counters) Result {
	r := Result{
		Config:           cfg,
		TimePS:           c.TimePS,
		Cycles:           c.BECycles,
		Retired:          c.Retired,
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

// activity converts a counter record into the power model's event record.
// It is linear in the record, so the activity of an interval is the
// activity of its counter delta.
func activity(c pipe.Counters) power.Activity {
	return power.Activity{
		TimePS:      c.TimePS,
		FECycles:    c.FECycles,
		BECycles:    c.BECycles,
		FetchGroups: c.FetchGroups,
		Fetched:     c.Fetched,
		Renamed:     c.Renamed,
		BPLookups:   c.Pred.Lookups,
		BPUpdates:   c.Pred.Updates,
		IWInserts:   c.IWInserted,
		IWSelects:   c.IWSelected,
		RegReads:    c.RegReads,
		RegWrites:   c.RegWrites,
		FUOps:       c.FUIssued,
		ROBWrites:   c.Dispatched + c.IssuedReplay,
		Retires:     c.Retired,
		LSQOps:      c.L1D.Accesses() + c.Forwards,
		L1I:         c.L1I,
		L1D:         c.L1D,
		L2:          c.L2,

		ECTagLookups:  c.EC.TagLookups,
		ECBlockReads:  c.EC.BlockReads,
		ECBlockWrites: c.EC.BlockWrites,
		UpdateOps:     c.UpdateOps,
		Checkpoints:   c.Checkpoints + c.SRTSwaps,
	}
}

// diff returns the fieldwise difference a - b.
func diff(a, b pipe.Counters) pipe.Counters { return combine(a, b, false) }

// sum returns the fieldwise sum a + b.
func sum(a, b pipe.Counters) pipe.Counters { return combine(a, b, true) }

// combine adds or subtracts every integer field of two records, through
// nested structs and arrays. It uses reflection so that a counter added to
// any block of the record needs no edit here; it runs only at sampling
// window marks, never per instruction.
func combine(a, b pipe.Counters, add bool) pipe.Counters {
	var out pipe.Counters
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
