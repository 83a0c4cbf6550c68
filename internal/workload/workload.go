// Package workload provides the benchmark-proxy kernels used by the
// experiment harness. The paper evaluates SPEC95/SPEC2000 binaries; those
// are not available here (and the ISA differs), so each benchmark named in
// the paper's figures is replaced by a hand-written assembly kernel that
// reproduces the *characteristics* that drive the paper's experiments:
//
//   - branch predictability (it determines trace divergences and therefore
//     EC residency and mispredict penalties),
//   - instruction-level parallelism (it determines issue-unit width and the
//     benefit of a faster front-end filling the window),
//   - memory footprint and access pattern (cache hit rates),
//   - integer/floating-point mix (functional-unit pressure),
//   - destination-register reuse (pressure on the per-architected-register
//     rename pools — the gzip/vpr/parser effect of Figure 11).
//
// See DESIGN.md ("Substitutions") for the fidelity argument. The mapping
// from kernel to namesake is documented per workload below.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"flywheel/internal/asm"
	"flywheel/internal/emu"
	"flywheel/internal/pipe"
)

// WarmUpLimit caps how many instructions a workload's initialization phase
// may execute during the warm fast-forward.
const WarmUpLimit = 50_000_000

// Workload is one runnable benchmark proxy.
type Workload struct {
	// Name matches the benchmark label used in the paper's figures.
	Name string
	// Suite is "SPEC95" or "SPEC2000" (as in the paper's benchmark list).
	Suite string
	// FP reports a floating-point-dominated kernel.
	FP bool
	// Description explains what the kernel does and which property of the
	// namesake benchmark it reproduces.
	Description string
	// Source is the assembly text (assembled lazily, cached).
	Source string
	// WarmLabel names the label where initialization ends and the measured
	// phase begins; harnesses fast-forward the functional machine to it
	// before attaching a timing core (the paper fast-forwards 500M
	// instructions before measuring).
	WarmLabel string

	once sync.Once
	prog *asm.Program

	// Warm state: the fast-forward to the warm point executes
	// once per process; later WarmState/NewMachine calls reuse the frozen
	// state (cloned copy-on-write) and the recorded warm observations.
	warmOnce sync.Once
	warmSnap *emu.Snapshot
	warmLog  *pipe.WarmLog
	warmErr  error
}

// WarmAddr returns the address of the measurement-phase entry, or 0 when
// the kernel has no initialization to skip.
func (w *Workload) WarmAddr() uint64 {
	if w.WarmLabel == "" {
		return 0
	}
	addr, ok := w.Program().Symbols[w.WarmLabel]
	if !ok {
		panic(fmt.Sprintf("workload %s: warm label %q not defined", w.Name, w.WarmLabel))
	}
	return addr
}

// WarmState executes the initialization phase once per process and returns
// the frozen architectural state at the warm point plus the recorded warm
// observations. The log is nil when initialization was too long to record
// (pipe.MaxWarmLogRecords); callers then fall back to functional
// re-execution for warming. The snapshot is shared: clone it (NewMachine)
// rather than mutating it.
func (w *Workload) WarmState() (*emu.Snapshot, *pipe.WarmLog, error) {
	w.warmOnce.Do(func() {
		m := emu.New(w.Program())
		log := &pipe.WarmLog{}
		if addr := w.WarmAddr(); addr != 0 {
			for m.PC != addr && !m.Halted && m.Retired < WarmUpLimit {
				tr, err := m.Step()
				if err != nil {
					w.warmErr = fmt.Errorf("workload %s: warm-up: %w", w.Name, err)
					return
				}
				log.Observe(tr)
			}
		}
		w.warmSnap = m.Snapshot()
		if !log.Overflowed() {
			w.warmLog = log
		}
	})
	return w.warmSnap, w.warmLog, w.warmErr
}

// NewMachine builds a functional machine fast-forwarded to the warm point.
// The fast-forward runs once per workload (WarmState); subsequent calls
// clone the frozen state through copy-on-write memory, so per-call cost is
// O(1) in the initialization length. Clones are independent and may run
// concurrently.
func (w *Workload) NewMachine() (*emu.Machine, error) {
	snap, _, err := w.WarmState()
	if err != nil {
		return nil, err
	}
	return snap.NewMachine(), nil
}

// Program assembles the kernel (cached, safe for concurrent use — lab
// workers share one Workload across parallel runs).
func (w *Workload) Program() *asm.Program {
	w.once.Do(func() {
		w.prog = asm.MustAssemble(w.Name+".s", w.Source)
	})
	return w.prog
}

var (
	registryMu sync.RWMutex
	registry   = map[string]*Workload{}
)

func register(w *Workload) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate %q", w.Name))
	}
	registry[w.Name] = w
}

// Register adds a runtime-constructed workload (e.g. a synthetic kernel)
// to the registry, making it addressable by name through the simulator and
// the lab's memoized cache. Re-registering a name with identical source is
// a no-op, so idempotent callers need no coordination; a name collision
// with different source is an error.
func Register(w *Workload) error {
	registryMu.Lock()
	defer registryMu.Unlock()
	if prev, ok := registry[w.Name]; ok {
		if prev.Source != w.Source {
			return fmt.Errorf("workload: %q already registered with different source", w.Name)
		}
		return nil
	}
	registry[w.Name] = w
	return nil
}

// Get returns a workload by name.
func Get(name string) (*Workload, error) {
	registryMu.RLock()
	w, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	return w, nil
}

// MustGet returns a workload or panics.
func MustGet(name string) *Workload {
	w, err := Get(name)
	if err != nil {
		panic(err)
	}
	return w
}

// Names lists all workloads in the paper's figure order.
func Names() []string {
	// Order used on the x-axis of Figures 2 and 11-15.
	return []string{"ijpeg", "gcc", "gzip", "vpr", "mesa", "equake", "parser", "vortex", "bzip2", "turb3d"}
}

// All returns the paper's workloads in figure order.
func All() []*Workload {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]*Workload, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// Sorted returns every registered workload sorted by name (for tests).
func Sorted() []*Workload {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]*Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
