package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// profiledPackages are the packages whose flat CPU share the traced run
// reports: the simulator's layers, the services, and the Go runtime.
var profiledPackages = []string{
	"emu", "trace", "branch", "mem", "pipe", "core", "ooo", "power",
	"sample", "sim", "lab", "labd", "fabric", "runtime",
}

// packageShares reads a CPU profile written by runtime/pprof and returns
// each package's flat share of the sampled CPU time: the fraction of
// samples whose innermost frame is a function of that package. Packages
// under internal/ are named by their first path element after it (so
// lab/store counts as lab); everything else outside the runtime is
// ignored.
//
// The profile format is gzipped protocol buffers (profile.proto); only
// the fields needed here are decoded: Profile.sample (2), .location (4),
// .function (5) and .string_table (6); Sample.location_id (1) and
// .value (2); Location.id (1) and .line (4); Line.function_id (1);
// Function.id (1) and .name (2).
func packageShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}

	type sample struct {
		leafLoc uint64
		value   int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{} // location → innermost function
	funcName := map[uint64]int64{} // function → string index
	var strs []string
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []int64
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := varints(wire, v, b)
					if err != nil {
						return err
					}
					if first && len(ids) > 0 {
						s.leafLoc, first = ids[0], false
					}
				case 2:
					xs, err := varints(wire, v, b)
					if err != nil {
						return err
					}
					for _, x := range xs {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1] // CPU profiles: [samples, cpu ns]
			}
			samples = append(samples, s)
		case 4: // location
			var id, fn uint64
			haveFn := false
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if haveFn {
						return nil // line[0] is the innermost inlined frame
					}
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fn, haveFn = v, true
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}

	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		total += float64(s.value)
		idx := funcName[locFunc[s.leafLoc]]
		if idx < 0 || int(idx) >= len(strs) {
			continue
		}
		if pkg := packageOf(strs[idx]); pkg != "" {
			shares[pkg] += float64(s.value)
		}
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// packageOf maps a profiled function name to its reported package, or "".
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "flywheel/internal/"); ok {
		end := strings.IndexAny(rest, "./")
		if end < 0 {
			return rest
		}
		return rest[:end]
	}
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	return ""
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value (wire types 0, 1, 5) or bytes
// (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
