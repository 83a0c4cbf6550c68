package sim

import (
	"fmt"
	"reflect"
	"testing"

	"flywheel/internal/pipe"
	"flywheel/internal/stats"
)

// counterFields calls fn with the path and value of every field of v that
// is not a struct or an array, through nested structs and arrays.
func counterFields(v reflect.Value, path string, fn func(path string, v reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			counterFields(v.Field(i), name, fn)
		}
	case reflect.Array:
		for i := range v.Len() {
			counterFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	default:
		fn(path, v)
	}
}

// leavesOf returns every counter of c in field order as a uint64 (signed
// fields two's-complement). It fails the test on any field diff and sum
// could not handle.
func leavesOf(t *testing.T, c pipe.Counters) []uint64 {
	t.Helper()
	var out []uint64
	counterFields(reflect.ValueOf(c), "", func(path string, v reflect.Value) {
		switch {
		case v.CanInt():
			out = append(out, uint64(v.Int()))
		case v.CanUint():
			out = append(out, v.Uint())
		default:
			t.Fatalf("counter record field %s is a %s, not a counter", path, v.Type())
		}
	})
	return out
}

// distinctCounters sets every integer field of a record to its own value,
// first, first+1, ... in field order.
func distinctCounters(first uint64) pipe.Counters {
	var c pipe.Counters
	next := first
	counterFields(reflect.ValueOf(&c).Elem(), "", func(_ string, v reflect.Value) {
		if v.CanInt() {
			v.SetInt(int64(next))
		} else {
			v.SetUint(next)
		}
		next++
	})
	return c
}

// TestCounterDiffSum checks stats.Sum and stats.Diff field by field over
// every counter of pipe.Counters, its FUIssued array and its nested blocks
// included: a counter added to the record is covered without an edit.
func TestCounterDiffSum(t *testing.T) {
	a, b := distinctCounters(1), distinctCounters(1_000)
	la, lb := leavesOf(t, a), leavesOf(t, b)
	if len(la) < 40 {
		t.Fatalf("only %d counters in the record; the walk is missing blocks", len(la))
	}
	s := stats.Sum(a, b)
	for i, v := range leavesOf(t, s) {
		if v != la[i]+lb[i] {
			t.Errorf("sum: counter %d is %d, want %d+%d", i, v, la[i], lb[i])
		}
	}
	if got := stats.Diff(s, b); got != a {
		t.Errorf("diff(sum(a, b), b) != a:\n got %+v\nwant %+v", got, a)
	}
	for i, v := range leavesOf(t, stats.Diff(b, a)) {
		if v != lb[i]-la[i] {
			t.Errorf("diff: counter %d is %d, want %d-%d", i, v, lb[i], la[i])
		}
	}
	if got := stats.Diff(a, a); got != (pipe.Counters{}) {
		t.Errorf("stats.Diff(a, a) = %+v, want zero", got)
	}
}
