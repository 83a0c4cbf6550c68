package sim

import (
	"reflect"
	"testing"
)

// counterLeaves appends every integer field of v, through nested structs
// and arrays, to out as a uint64 (signed fields two's-complement). It fails
// the test on any field diff and sum could not handle.
func counterLeaves(t *testing.T, v reflect.Value, path string, out *[]uint64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			counterLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	case reflect.Array:
		for i := range v.Len() {
			counterLeaves(t, v.Index(i), path+"[]", out)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*out = append(*out, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*out = append(*out, v.Uint())
	default:
		t.Fatalf("counter record field %s is a %s, not a counter", path, v.Type())
	}
}

func leavesOf(t *testing.T, c counters) []uint64 {
	t.Helper()
	var out []uint64
	counterLeaves(t, reflect.ValueOf(c), "counters", &out)
	return out
}

// distinctCounters sets every integer field of a record to its own value,
// first, first+1, ... in field order.
func distinctCounters(first uint64) counters {
	var c counters
	next := first
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := range v.Len() {
				fill(v.Index(i))
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(int64(next))
			next++
		default:
			v.SetUint(next)
			next++
		}
	}
	fill(reflect.ValueOf(&c).Elem())
	return c
}

// TestCounterDiffSum checks the generic record arithmetic field by field
// over every counter of power.Activity (the FUOps array included),
// branch.Stats, mem.PrefetchStats, mem.DemandStats and the record's own
// fields: a counter added to any of them is covered without an edit in
// this package.
func TestCounterDiffSum(t *testing.T) {
	a, b := distinctCounters(1), distinctCounters(1_000)
	la, lb := leavesOf(t, a), leavesOf(t, b)
	if len(la) < 40 {
		t.Fatalf("only %d counters in the record; the walk is missing blocks", len(la))
	}
	s := sum(a, b)
	for i, v := range leavesOf(t, s) {
		if v != la[i]+lb[i] {
			t.Errorf("sum: counter %d is %d, want %d+%d", i, v, la[i], lb[i])
		}
	}
	if got := diff(s, b); got != a {
		t.Errorf("diff(sum(a, b), b) != a:\n got %+v\nwant %+v", got, a)
	}
	for i, v := range leavesOf(t, diff(b, a)) {
		if v != lb[i]-la[i] {
			t.Errorf("diff: counter %d is %d, want %d-%d", i, v, lb[i], la[i])
		}
	}
	if got := diff(a, a); got != (counters{}) {
		t.Errorf("diff(a, a) = %+v, want zero", got)
	}
}
