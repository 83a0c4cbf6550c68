package sim

import (
	"fmt"
	"sync"

	"flywheel/internal/branch"
	"flywheel/internal/emu"
	"flywheel/internal/mem"
	"flywheel/internal/pipe"
	"flywheel/internal/workload"
)

// A workload's initialization phase executes once per process
// (workload.WarmState), which freezes the architectural state at the warm
// point as a copy-on-write snapshot and records the warm observations.
// Every run clones that snapshot, and its caches and branch predictor are
// seeded from a template that replays the observations once per
// configuration.

// warmState is a fully warmed predictor + cache hierarchy, built once per
// (workload, hierarchy config, predictor config) by replaying the recorded
// warm log, then copied into each run's core as a pair of memcpys.
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
}

var warmStates sync.Map // warmStateKey -> *warmStateEntry

// template returns the warmed predictor/hierarchy template for the given
// configuration, replaying log at most once per configuration.
func template(w *workload.Workload, log *pipe.WarmLog, hierCfg mem.HierarchyConfig, branchCfg branch.Config) *warmState {
	key := warmStateKey{workload: w.Name, hier: hierCfg, branch: branchCfg}
	e, _ := warmStates.LoadOrStore(key, &warmStateEntry{})
	entry := e.(*warmStateEntry)
	entry.once.Do(func() {
		st := &warmState{pred: branch.New(branchCfg), hier: mem.NewHierarchy(hierCfg)}
		log.Replay(pipe.NewWarmer(st.pred, st.hier))
		entry.st = st
	})
	return entry.st
}

// warm seeds a core's caches and branch predictor with the workload's
// initialization-phase observations: a state copy from the warmed template
// when the log was recorded, or a functional re-execution when it
// overflowed (log is nil; see pipe.MaxWarmLogRecords).
func warm(warmer *pipe.Warmer, w *workload.Workload, log *pipe.WarmLog, hierCfg mem.HierarchyConfig, branchCfg branch.Config) error {
	if w.WarmAddr() == 0 {
		return nil
	}
	if log != nil {
		st := template(w, log, hierCfg, branchCfg)
		warmer.SeedFrom(st.pred, st.hier)
		return nil
	}
	wm := emu.New(w.Program())
	for wm.PC != w.WarmAddr() && !wm.Halted && wm.Retired < workload.WarmUpLimit {
		tr, err := wm.Step()
		if err != nil {
			return fmt.Errorf("sim warm %s: %w", w.Name, err)
		}
		warmer.Observe(tr)
	}
	warmer.Finish()
	return nil
}
