package sim

import (
	"runtime"
	"slices"
	"sync"

	"flywheel/internal/core"
	"flywheel/internal/mem"
	"flywheel/internal/pipe"
	"flywheel/internal/workload"
)

// Machine reuse. A sweep is hundreds of short runs of the same two cores,
// and building a core allocates its caches, Execution Cache, arena and
// queues: a fresh machine per run made the garbage collector run a dozen
// times per paper pass. A run instead takes an idle machine of its shape
// from a small process-wide pool and resets it to its own configuration;
// Reset leaves every structure exactly as New builds it, so a reused
// machine simulates byte-identically to a fresh one.
//
// Only a run that finished without error returns its machine. A run that
// fails or panics (the lab recovers panics into error results) may have
// stopped mid-cycle with its structures half updated; its machine is
// dropped and the next run of that shape builds or reuses another.

// poolKey is a machine's structural shape: two runs with equal keys can
// share a machine, whatever their clock plans, latencies, pipeline depths,
// predictors and prefetchers (Reset rebuilds a predictor or prefetcher of
// another kind; they are small next to the caches and the Execution
// Cache). The cores' Reset methods check the rest of the shape and refuse
// a mismatch, so the key decides only which machine a run tries.
type poolKey struct {
	core         string          // "ooo" (baseline) or "core" (Flywheel and RegAlloc)
	l1i, l1d, l2 mem.CacheConfig // Geometry()
	ec           core.ECConfig
	arena        int // pipe.ArenaCapacity
}

type idleMachine struct {
	key poolKey
	m   machine
}

// machinePool holds idle machines, oldest first. A machine is built only
// when no idle machine of its key is left, so a key never has more idle
// machines than it had runs in flight at once: at most one per lab worker.
// The total is also capped at maxIdle, dropping the oldest.
type machinePool struct {
	mu   sync.Mutex
	idle []idleMachine
}

var machines machinePool

// maxIdle caps the pool at one idle machine per CPU. An idle machine is
// live heap that building a machine per run would not hold (a Flywheel
// core with its Execution Cache and oracle window filled is 1-2 MB), and
// the collector's heap goal grows with the live heap: two per CPU raised
// the peak heap of perfbench's cluster-skew, whose labd workers outnumber
// the CPUs (DESIGN, "Machine reuse").
func maxIdle() int { return runtime.GOMAXPROCS(0) }

// get removes and returns the newest idle machine of key, or nil.
func (p *machinePool) get(key poolKey) machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].key == key {
			m := p.idle[i].m
			p.idle = slices.Delete(p.idle, i, i+1)
			return m
		}
	}
	return nil
}

// put adds m as the newest idle machine of key.
func (p *machinePool) put(key poolKey, m machine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, idleMachine{key, m})
	if over := len(p.idle) - maxIdle(); over > 0 {
		p.idle = slices.Delete(p.idle, 0, over)
	}
}

// len returns the number of idle machines (tests).
func (p *machinePool) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// ResetMachinePool drops every idle machine, so the next run of each shape
// builds a new one (tests).
func ResetMachinePool() {
	machines.mu.Lock()
	defer machines.mu.Unlock()
	machines.idle = nil
}

// use runs fn on a machine of d's configuration over src and returns the
// machine to the pool if fn succeeded. The machine comes from the pool
// when one of d's shape is idle, reset to d's configuration, and is built
// otherwise; with w non-nil it is then warmed (see warm). A run that
// fails, here or in fn, or panics does not return its machine.
func (d design) use(src pipe.InstSource, w *workload.Workload, fn func(machine) error) error {
	m := machines.get(d.key)
	if m == nil || !d.reset(m, src) {
		m = d.build(src)
	}
	if w != nil {
		if err := warm(m.Warmer(), w, d.mem, d.branch); err != nil {
			return err
		}
	}
	if err := fn(m); err != nil {
		return err
	}
	// Unbind the run's source (and its marks callback) before the machine
	// idles, so the pool keeps no emulator or trace reader alive.
	if d.reset(m, nil) {
		machines.put(d.key, m)
	}
	return nil
}
