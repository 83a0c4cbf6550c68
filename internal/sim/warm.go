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
// initialization phase functionally once per configuration.

// warmState is a fully warmed predictor + cache hierarchy, built once per
// (workload, hierarchy config, predictor config) by observing the
// initialization phase, then copied into each run's core as a pair of
// memcpys.
type warmState struct {
	pred *branch.Predictor
	hier *mem.Hierarchy
}

type warmStateKey struct {
	workload string
	hier     mem.HierarchyConfig
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
// configuration.
func template(w *workload.Workload, hierCfg mem.HierarchyConfig, branchCfg branch.Config) (*warmState, error) {
	key := warmStateKey{workload: w.Name, hier: hierCfg, branch: branchCfg}
	e, _ := warmStates.LoadOrStore(key, &warmStateEntry{})
	entry := e.(*warmStateEntry)
	entry.once.Do(func() {
		st := &warmState{pred: branch.New(branchCfg), hier: mem.NewHierarchy(hierCfg)}
		warmer := pipe.NewWarmer(st.pred, st.hier)
		if _, entry.err = w.RunInit(warmer.Observe); entry.err == nil {
			warmer.Finish()
			entry.st = st
		}
	})
	return entry.st, entry.err
}

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
