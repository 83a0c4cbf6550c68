package sim

import (
	"sync"

	"flywheel/internal/branch"
	"flywheel/internal/mem"
	"flywheel/internal/pipe"
	"flywheel/internal/workload"
)

// A workload's initialization phase executes once per process to freeze
// the architectural state at the warm point as a copy-on-write snapshot
// (workload.WarmState); every run clones that snapshot. Its caches and
// branch predictor are seeded from a template that re-executes the
// initialization phase functionally once per cache geometry and predictor.

// warmState is a fully warmed predictor and the image of a fully warmed
// cache hierarchy, built once per (workload, hierarchy geometry, predictor
// config) by observing the initialization phase, then copied into each
// run's core.
type warmState struct {
	pred *branch.Predictor
	hier *mem.Image
}

// warmStateKey keys a template on the hierarchy's geometry, not its full
// configuration: warming runs at period 1 and Warmer.Finish clears the
// only latency-dependent state (the demand latency sum), so the latencies
// a node or clock plan sets never change what warming leaves behind, and
// the nodes of one workload share a template.
type warmStateKey struct {
	workload string
	hier     mem.HierarchyConfig // Geometry()
	branch   branch.Config
}

type warmStateEntry struct {
	once sync.Once
	st   *warmState
	err  error
}

var warmStates sync.Map // warmStateKey -> *warmStateEntry

// template returns the warmed predictor/hierarchy template for the given
// configuration, executing the initialization phase at most once per
// hierarchy geometry and predictor configuration.
func template(w *workload.Workload, hierCfg mem.HierarchyConfig, branchCfg branch.Config) (*warmState, error) {
	key := warmStateKey{workload: w.Name, hier: hierCfg.Geometry(), branch: branchCfg}
	e, _ := warmStates.LoadOrStore(key, &warmStateEntry{})
	entry := e.(*warmStateEntry)
	entry.once.Do(func() {
		pred, hier := branch.New(branchCfg), mem.NewHierarchy(key.hier)
		warmer := pipe.NewWarmer(pred, hier)
		if _, entry.err = w.RunInit(warmer.Observe); entry.err == nil {
			warmer.Finish()
			entry.st = &warmState{pred: pred, hier: hier.Image()}
		}
	})
	return entry.st, entry.err
}

// ResetWarmTemplates drops every warmed predictor/hierarchy template, so
// the next run of each configuration builds its template again (tests).
func ResetWarmTemplates() { warmStates.Clear() }

// warm seeds a core's caches and branch predictor with the workload's
// initialization-phase observations by copying the warmed template's state.
func warm(warmer *pipe.Warmer, w *workload.Workload, hierCfg mem.HierarchyConfig, branchCfg branch.Config) error {
	if w.WarmAddr() == 0 {
		return nil
	}
	st, err := template(w, hierCfg, branchCfg)
	if err != nil {
		return err
	}
	warmer.SeedFrom(st.pred, st.hier)
	return nil
}
