package sample

import (
	"slices"
	"testing"

	"flywheel/internal/branch"
	"flywheel/internal/emu"
	"flywheel/internal/isa"
	"flywheel/internal/mem"
	"flywheel/internal/pipe"
)

// seqSource delivers records 0..end-1 one at a time.
type seqSource struct{ next, end uint64 }

func (s *seqSource) Next() (emu.Trace, bool) {
	if s.next >= s.end {
		return emu.Trace{}, false
	}
	// Every record is a load of a distinct line, so a warmer's demand
	// statistics count (and order-sensitively sum) the records it observed.
	tr := emu.Trace{Seq: s.next, PC: 0x1000 + 4*(s.next%256), Inst: isa.Instruction{Op: isa.LD}, Addr: 64 * s.next}
	s.next++
	return tr, true
}

// fillSource adds the batched pipe.Filler path.
type fillSource struct{ seqSource }

func (s *fillSource) Fill(buf []emu.Trace) int {
	n := 0
	for n < len(buf) {
		tr, ok := s.Next()
		if !ok {
			break
		}
		buf[n] = tr
		n++
	}
	return n
}

// skipSource adds the Skipper capability and records every skip request.
type skipSource struct {
	seqSource
	skips []uint64
}

func (s *skipSource) Skip(n uint64) uint64 {
	s.skips = append(s.skips, n)
	n = min(n, s.end-s.next)
	s.next += n
	return n
}

func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  func(end uint64) (pipe.InstSource, *seqSource)
	}{
		{"next", func(end uint64) (pipe.InstSource, *seqSource) {
			s := &seqSource{end: end}
			return s, s
		}},
		{"fill", func(end uint64) (pipe.InstSource, *seqSource) {
			s := &fillSource{seqSource{end: end}}
			return s, &s.seqSource
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, seq := tc.src(100)
			g := NewGate(src)
			buf := make([]emu.Trace, 8)
			if _, ok := g.Next(); ok {
				t.Error("closed gate delivered a record via Next")
			}
			if n := g.Fill(buf); n != 0 {
				t.Errorf("closed gate filled %d records", n)
			}
			if seq.next != 0 {
				t.Errorf("closed gate consumed %d source records", seq.next)
			}

			g.Open(5)
			if n := g.Fill(buf); n != 5 {
				t.Errorf("Fill with budget 5 into 8 slots gave %d", n)
			}
			if buf[4].Seq != 4 {
				t.Errorf("last filled record is seq %d, want 4", buf[4].Seq)
			}
			if n := g.Fill(buf); n != 0 {
				t.Errorf("exhausted budget filled %d more", n)
			}
			g.Open(2)
			for i := range 3 {
				if _, ok := g.Next(); ok != (i < 2) {
					t.Errorf("Next %d with budget 2: ok=%v", i, ok)
				}
			}
			if d := g.TakeDelivered(); d != 7 {
				t.Errorf("delivered %d, want 7", d)
			}
			if d := g.TakeDelivered(); d != 0 {
				t.Errorf("TakeDelivered did not reset: %d", d)
			}

			// A short source stops the gate early: 93 records remain
			// against a budget of 200.
			g.Open(200)
			total := 0
			for {
				n := g.Fill(buf)
				if n == 0 {
					break
				}
				total += n
			}
			if total != 93 || g.TakeDelivered() != 93 {
				t.Errorf("short source: delivered %d, want 93", total)
			}
			if _, ok := g.Next(); ok {
				t.Error("drained source delivered a record")
			}
		})
	}
}

func TestFastForward(t *testing.T) {
	w := pipe.NewWarmer(branch.New(branch.DefaultConfig()), mem.NewHierarchy(mem.DefaultHierarchyConfig(500)))
	if n := FastForward(&seqSource{end: 10}, w, 0); n != 0 {
		t.Errorf("zero gap consumed %d", n)
	}
	for _, tc := range []struct {
		name  string
		end   uint64
		gap   uint64
		want  uint64
		skips []uint64
	}{
		{"within horizon", 100_000, WarmHorizon, WarmHorizon, nil},
		{"beyond horizon", 100_000, WarmHorizon + 1_000, WarmHorizon + 1_000, []uint64{1_000}},
		{"short source", 500, 1_000, 500, nil},
		{"short source beyond horizon", WarmHorizon + 10, WarmHorizon + 1_000, WarmHorizon + 10, []uint64{1_000}},
	} {
		src := &skipSource{seqSource: seqSource{end: tc.end}}
		if n := FastForward(src, w, tc.gap); n != tc.want {
			t.Errorf("%s: consumed %d, want %d", tc.name, n, tc.want)
		}
		if src.next != tc.want {
			t.Errorf("%s: source advanced %d, want %d", tc.name, src.next, tc.want)
		}
		if !slices.Equal(src.skips, tc.skips) {
			t.Errorf("%s: skips %v, want %v", tc.name, src.skips, tc.skips)
		}
	}
	// Without the Skipper capability the records before the horizon are
	// still consumed, batched or not.
	for _, src := range []pipe.InstSource{&seqSource{end: 100_000}, &fillSource{seqSource{end: 100_000}}} {
		if n := FastForward(src, w, WarmHorizon+1_000); n != WarmHorizon+1_000 {
			t.Errorf("%T: consumed %d", src, n)
		}
	}
}

// shortSkipSource is a Skipper that skips at most max records per call,
// which the Skipper contract allows.
type shortSkipSource struct {
	fillSource
	max uint64
}

func (s *shortSkipSource) Skip(n uint64) uint64 {
	n = min(n, s.max, s.end-s.next)
	s.next += n
	return n
}

// TestFastForwardWarmsSameRecordsForEverySource pins the one warming rule:
// next-only, batched, skipping and short-skipping sources leave the warmer
// in the same state, having observed exactly the last min(gap, WarmHorizon)
// records of the gap.
func TestFastForwardWarmsSameRecordsForEverySource(t *testing.T) {
	for _, tc := range []struct {
		name        string
		end, gap    uint64
		wantWarmed  uint64
		wantSkipped uint64
	}{
		{"within horizon", 100_000, 1_000, 1_000, 1_000},
		{"beyond horizon", 100_000, WarmHorizon + 5_000, WarmHorizon, WarmHorizon + 5_000},
		{"ends inside warmed part", WarmHorizon + 10, WarmHorizon + 5_000, WarmHorizon - 4_990, WarmHorizon + 10},
		{"ends in passed-over part", 3_000, WarmHorizon + 5_000, 0, 3_000},
	} {
		sources := map[string]pipe.InstSource{
			"next":       &seqSource{end: tc.end},
			"fill":       &fillSource{seqSource{end: tc.end}},
			"skip":       &skipSource{seqSource: seqSource{end: tc.end}},
			"short skip": &shortSkipSource{fillSource: fillSource{seqSource{end: tc.end}}, max: 700},
		}
		var want mem.DemandStats
		first := true
		for _, name := range []string{"next", "fill", "skip", "short skip"} {
			hier := mem.NewHierarchy(mem.DefaultHierarchyConfig(500))
			w := pipe.NewWarmer(branch.New(branch.DefaultConfig()), hier)
			if n := FastForward(sources[name], w, tc.gap); n != tc.wantSkipped {
				t.Errorf("%s/%s: consumed %d, want %d", tc.name, name, n, tc.wantSkipped)
			}
			got := hier.DemandStats()
			if got.DataAccesses != tc.wantWarmed {
				t.Errorf("%s/%s: warmed %d records, want %d", tc.name, name, got.DataAccesses, tc.wantWarmed)
			}
			if first {
				want, first = got, false
			} else if got != want {
				t.Errorf("%s/%s: warmer state %+v, want %+v (next-only source)", tc.name, name, got, want)
			}
		}
	}
}
