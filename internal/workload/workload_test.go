package workload

import (
	"strings"
	"testing"

	"flywheel/internal/emu"
	"flywheel/internal/isa"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("expected the paper's 10 benchmarks, have %d", len(names))
	}
	for _, n := range names {
		w, err := Get(n)
		if err != nil {
			t.Errorf("Get(%q): %v", n, err)
			continue
		}
		if w.Description == "" || w.Suite == "" {
			t.Errorf("%s lacks metadata", n)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	if len(All()) != 10 || len(Sorted()) != 10 {
		t.Error("All/Sorted incomplete")
	}
}

func TestAllKernelsAssemble(t *testing.T) {
	for _, w := range All() {
		p := w.Program()
		if len(p.Code) < 20 {
			t.Errorf("%s: suspiciously small kernel (%d instructions)", w.Name, len(p.Code))
		}
	}
}

func TestAllKernelsRunToCompletion(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			m := emu.New(w.Program())
			n, err := m.Run(20_000_000)
			if err != nil {
				t.Fatalf("execution error: %v", err)
			}
			if !m.Halted {
				t.Fatalf("did not halt within 20M instructions (ran %d)", n)
			}
			if n < 100_000 {
				t.Errorf("dynamic length %d too short for steady-state measurement", n)
			}
			if n > 10_000_000 {
				t.Errorf("dynamic length %d too long for the experiment budget", n)
			}
		})
	}
}

// classMix counts dynamic instruction classes over a bounded run of the
// measured (post-warm-up) phase.
func classMix(t *testing.T, w *Workload, limit uint64) map[isa.Class]uint64 {
	t.Helper()
	m, err := w.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	mix := map[isa.Class]uint64{}
	s := emu.NewStream(m, m.Retired+limit)
	for {
		tr, ok := s.Next()
		if !ok {
			break
		}
		mix[tr.Inst.Class()]++
	}
	if err := s.Err(); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return mix
}

func TestFPWorkloadsAreFPHeavy(t *testing.T) {
	for _, name := range []string{"mesa", "equake", "turb3d"} {
		w := MustGet(name)
		if !w.FP {
			t.Errorf("%s not marked FP", name)
		}
		mix := classMix(t, w, 400_000)
		fp := mix[isa.ClassFPAdd] + mix[isa.ClassFPMul] + mix[isa.ClassFPDiv]
		var total uint64
		for _, v := range mix {
			total += v
		}
		if frac := float64(fp) / float64(total); frac < 0.15 {
			t.Errorf("%s: FP fraction %.2f, want >= 0.15", name, frac)
		}
	}
}

func TestIntWorkloadsBranchFractions(t *testing.T) {
	// All kernels need a meaningful branch fraction for the control-flow
	// experiments, and loads for the memory system.
	for _, w := range All() {
		mix := classMix(t, w, 400_000)
		var total uint64
		for _, v := range mix {
			total += v
		}
		branches := mix[isa.ClassBranch] + mix[isa.ClassJump]
		if frac := float64(branches) / float64(total); frac < 0.03 {
			t.Errorf("%s: branch fraction %.3f, want >= 0.03", w.Name, frac)
		}
		if mix[isa.ClassLoad] == 0 {
			t.Errorf("%s: no loads at all", w.Name)
		}
	}
}

func TestVortexIsCallHeavy(t *testing.T) {
	mix := classMix(t, MustGet("vortex"), 400_000)
	var total uint64
	for _, v := range mix {
		total += v
	}
	if frac := float64(mix[isa.ClassJump]) / float64(total); frac < 0.05 {
		t.Errorf("vortex jump/call fraction = %.3f, want >= 0.05", frac)
	}
}

func TestProgramsAreCached(t *testing.T) {
	w := MustGet("gcc")
	if w.Program() != w.Program() {
		t.Error("Program not cached")
	}
}

// TestWarmStateRejectsUnreachedWarmLabel: a kernel whose initialization
// halts before its warm label has no measured phase, so warming it must
// fail with the workload's name rather than snapshot the halted machine.
func TestWarmStateRejectsUnreachedWarmLabel(t *testing.T) {
	w := &Workload{Name: "halts-early", WarmLabel: "measure", Source: `
	li   r1, 3
	halt
measure:
	addi r1, r1, 1
	halt
`}
	if _, err := w.WarmState(); err == nil || !strings.Contains(err.Error(), "halts-early") || !strings.Contains(err.Error(), "halted") {
		t.Fatalf("WarmState error = %v, want one naming halts-early and that it halted", err)
	}
	if _, err := w.NewMachine(); err == nil {
		t.Fatal("NewMachine cloned the state of a kernel that never reached its warm label")
	}
	n := 0
	if _, err := w.RunInit(func(emu.Trace) { n++ }); err == nil {
		t.Fatal("RunInit accepted a kernel that never reached its warm label")
	}
	if n != 2 {
		t.Fatalf("RunInit observed %d instructions, want the 2 before the halt", n)
	}
}

// TestRunInitStopsAtWarmLabel: RunInit observes exactly the instructions
// the warm snapshot retires, and stops at the warm label.
func TestRunInitStopsAtWarmLabel(t *testing.T) {
	w := MustGet("ijpeg")
	n := uint64(0)
	m, err := w.RunInit(func(emu.Trace) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	snap, err := w.WarmState()
	if err != nil {
		t.Fatal(err)
	}
	if m.PC != w.WarmAddr() || n != m.Retired || n != snap.Retired() {
		t.Fatalf("RunInit stopped at pc %#x after %d observed / %d retired; want warm label %#x after the snapshot's %d",
			m.PC, n, m.Retired, w.WarmAddr(), snap.Retired())
	}
}
