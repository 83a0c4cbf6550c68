package stats

import (
	"fmt"
	"reflect"
)

// Sum returns the fieldwise sum a + b of two counter records: structs
// whose fields are integers, or nested structs and arrays of them. It
// walks the record by reflection, so a counter added to any record is
// summed with no edit here or at the caller; it suits code that runs per
// sampling window or per stats request, not per instruction.
func Sum[T any](a, b T) T { return combine(a, b, true) }

// Diff returns the fieldwise difference a - b of two counter records.
func Diff[T any](a, b T) T { return combine(a, b, false) }

func combine[T any](a, b T, add bool) T {
	var out T
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
		panic(fmt.Sprintf("stats: counter record holds a non-counter field of type %s", out.Type()))
	}
}
