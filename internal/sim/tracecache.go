package sim

import (
	"flywheel/internal/emu"
	"flywheel/internal/pipe"
	"flywheel/internal/trace"
	"flywheel/internal/workload"
)

// The process-wide trace cache (package trace) sits between the warm
// snapshots and the timing cores: the first run of a workload records the
// post-warm-up dynamic instruction stream while its own timing core
// consumes it, and every later run — any architecture, boost or node, and
// any instruction budget up to the recorded ceiling — replays the recording
// instead of re-executing the functional emulator. Runs are identical
// either way (pinned by differential tests), sampled runs included:
// sample.FastForward warms the same records whatever the source, so the
// cache only changes where the records come from. Recordings live only in this process's memory and
// are keyed by workload name, which workload.Register keeps unique per
// source text.

var traceCache = trace.NewCache(trace.Policy{})

// SetTraceCachePolicy replaces the process-wide trace-cache policy. It
// applies to runs started after the call; the policy is global because the
// cache is (concurrent sweeps share recordings — that is the point).
func SetTraceCachePolicy(p trace.Policy) { traceCache.SetPolicy(p) }

// TraceCachePolicy returns the current policy.
func TraceCachePolicy() trace.Policy { return traceCache.Policy() }

// TraceCacheStats reports the trace cache's traffic counters.
func TraceCacheStats() trace.Stats { return traceCache.Stats() }

// ResetTraceCache drops every recording and zeroes the counters (tests and
// cold-start benchmarks). In-flight readers finish unaffected.
func ResetTraceCache() { traceCache.Reset() }

// acquireSource picks the instruction source for one run: a replaying
// reader on a hit, a recording pass-through on a miss, or a plain live
// stream on a bypass. finish must be called exactly once when the run ends
// (nil error on success); it completes or aborts a recording and is a no-op
// for the other grants.
func acquireSource(w *workload.Workload, snap *emu.Snapshot, maxInstructions uint64) (src pipe.InstSource, finish func(error), err error) {
	noop := func(error) {}
	liveStream := func(skip uint64) (*emu.Stream, error) {
		m := snap.NewMachine()
		if skip > 0 {
			if _, err := m.Run(skip); err != nil {
				return nil, err
			}
		}
		limit := uint64(0)
		if maxInstructions > 0 {
			limit = snap.Retired() + maxInstructions
		}
		return emu.NewStream(m, limit), nil
	}

	g := traceCache.Acquire(w.Name, snap.Retired(), maxInstructions, liveStream)
	switch {
	case g.Replay != nil:
		return g.Replay, noop, nil
	case g.Record != nil:
		live, err := liveStream(0)
		if err != nil {
			// The machine could not even be cloned; drop the recording so
			// waiters fall back rather than hang.
			g.Record.Fail()
			return nil, nil, err
		}
		rec := trace.NewRecorder(g.Record, live)
		return rec, func(runErr error) { traceCache.FinishRecorder(rec, runErr) }, nil
	default:
		live, err := liveStream(0)
		if err != nil {
			return nil, nil, err
		}
		return live, noop, nil
	}
}
