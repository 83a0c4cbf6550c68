package sample

import (
	"sync"

	"flywheel/internal/emu"
	"flywheel/internal/pipe"
)

// Gate meters a shared instruction source into a core during sampled
// execution. Between windows the gate is closed: the core reads
// end-of-stream and drains, exactly as if the program had ended. Opening
// the gate with a budget admits the next window's records. One gate (and
// one core behind it) persists for the whole run, so microarchitectural
// state — caches, predictor, Execution Cache, rename pools — carries
// across windows instead of restarting cold.
type Gate struct {
	src       pipe.InstSource
	filler    pipe.Filler
	budget    uint64
	delivered uint64
}

// NewGate wraps src. The fast batched Fill path is used when src supports
// it.
func NewGate(src pipe.InstSource) *Gate {
	g := &Gate{src: src}
	if f, ok := src.(pipe.Filler); ok {
		g.filler = f
	}
	return g
}

// Open adds n records to the deliverable budget.
func (g *Gate) Open(n uint64) { g.budget += n }

// TakeDelivered returns the number of records delivered since the last
// call and resets the count; the sampled runner uses it to track the
// stream position (which can fall short of the budget when the program
// ends inside a window).
func (g *Gate) TakeDelivered() uint64 {
	d := g.delivered
	g.delivered = 0
	return d
}

// Next implements pipe.InstSource.
func (g *Gate) Next() (emu.Trace, bool) {
	if g.budget == 0 {
		return emu.Trace{}, false
	}
	tr, ok := g.src.Next()
	if ok {
		g.budget--
		g.delivered++
	}
	return tr, ok
}

// Fill implements pipe.Filler, truncating the batch to the open budget.
func (g *Gate) Fill(buf []emu.Trace) int {
	if g.budget == 0 {
		return 0
	}
	if uint64(len(buf)) > g.budget {
		buf = buf[:g.budget]
	}
	var n int
	if g.filler != nil {
		n = g.filler.Fill(buf)
	} else {
		for n < len(buf) {
			tr, ok := g.src.Next()
			if !ok {
				break
			}
			buf[n] = tr
			n++
		}
	}
	g.budget -= uint64(n)
	g.delivered += uint64(n)
	return n
}

// Skipper is the optional fast-skip capability of an instruction source
// (the trace cache's Reader implements it via chunk-indexed seek). Skip may
// advance fewer than n records; FastForward discards the rest itself.
type Skipper interface {
	Skip(n uint64) uint64
}

// FastForward consumes up to n records from src and returns how many it
// consumed. Whatever the source, it warms exactly the last
// min(n, WarmHorizon) records of the gap (functional warming: state
// updates, no timing) and passes over the records before them unobserved,
// so a sampled result does not depend on where its records come from.
// Skipper only makes the unobserved part cheaper.
func FastForward(src pipe.InstSource, warm *pipe.Warmer, n uint64) uint64 {
	var done uint64
	if n > WarmHorizon {
		pass := n - WarmHorizon
		if sk, ok := src.(Skipper); ok {
			done = sk.Skip(pass)
		}
		done += drain(src, pass-done, nil)
		if done < pass {
			return done
		}
	}
	return done + drain(src, n-done, warm)
}

// drainBufs recycles drain's fill buffers: a buffer handed to Fill through
// an interface escapes, so a local array would cost a 24 KB allocation per
// fast-forward.
var drainBufs = sync.Pool{New: func() any { return new([512]emu.Trace) }}

// drain consumes up to n records from src, feeding each into warm unless
// warm is nil, and returns how many it consumed.
func drain(src pipe.InstSource, n uint64, warm *pipe.Warmer) uint64 {
	var done uint64
	if filler, ok := src.(pipe.Filler); ok {
		buf := drainBufs.Get().(*[512]emu.Trace)
		defer drainBufs.Put(buf)
		for done < n {
			b := buf[:min(uint64(len(buf)), n-done)]
			m := filler.Fill(b)
			if m == 0 {
				break
			}
			if warm != nil {
				for i := range b[:m] {
					warm.Observe(b[i])
				}
			}
			done += uint64(m)
		}
		return done
	}
	for done < n {
		tr, ok := src.Next()
		if !ok {
			break
		}
		if warm != nil {
			warm.Observe(tr)
		}
		done++
	}
	return done
}
