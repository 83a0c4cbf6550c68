package pipe

import (
	"flywheel/internal/branch"
	"flywheel/internal/emu"
	"flywheel/internal/isa"
	"flywheel/internal/mem"
)

// Warmer performs functional warming: during the fast-forward over a
// workload's initialization (the paper skips 500M instructions before
// measuring), the caches and the branch predictor observe the architectural
// access stream so the measured window starts from realistic state instead
// of compulsory-miss cold start.
type Warmer struct {
	pred      *branch.Predictor
	hier      *mem.Hierarchy
	lastFetch uint64
}

// NewWarmer builds a warmer over a core's predictor and memory hierarchy.
func NewWarmer(pred *branch.Predictor, hier *mem.Hierarchy) *Warmer {
	return &Warmer{pred: pred, hier: hier, lastFetch: ^uint64(0)}
}

// SeedFrom copies already warmed predictor and cache state into this
// warmer's structures: the O(state-size) equivalent of replaying the whole
// warm observation stream. Source and destination configurations must
// match.
func (w *Warmer) SeedFrom(pred *branch.Predictor, hier *mem.Hierarchy) {
	w.pred.CopyStateFrom(pred)
	w.hier.CopyStateFrom(hier)
}

// Observe feeds one architectural record into the caches and predictor.
func (w *Warmer) Observe(tr emu.Trace) {
	// Instruction fetch, one access per cache line actually entered.
	line := tr.PC &^ uint64(w.hier.L1I.Config().LineBytes-1)
	if line != w.lastFetch {
		w.hier.Access(mem.AccessFetch, tr.PC, tr.PC, 1)
		w.lastFetch = line
	}
	if tr.Inst.IsMem() {
		kind := mem.AccessLoad
		if tr.Inst.Class() == isa.ClassStore {
			kind = mem.AccessStore
		}
		w.hier.Access(kind, tr.PC, tr.Addr, 1)
	}
	if tr.Inst.IsControl() {
		w.pred.Predict(tr.PC, tr.Inst)
		w.pred.Update(tr.PC, tr.Inst, tr.Taken, tr.NextPC)
	}
}

// Finish clears the statistics accumulated while warming so measurements
// start clean (cache and predictor *state* is kept — that is the point).
func (w *Warmer) Finish() {
	w.hier.ResetStats()
	w.pred.Stats = branch.Stats{}
}
