package sim

import (
	"strings"
	"testing"

	"flywheel/internal/cacti"
	"flywheel/internal/workload"
)

func TestSingleRunCompletes(t *testing.T) {
	res, err := Run(RunConfig{
		Workload: "ijpeg", Arch: ArchFlywheel, Node: cacti.Node130,
		FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: 50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired < 50_000 {
		t.Errorf("retired %d", res.Retired)
	}
	t.Logf("time=%dps ipc=%.2f resid=%.2f", res.TimePS, res.IPC, res.ECResidency)
}

// TestRunRejectsUnreachedWarmLabel: a registered kernel whose
// initialization halts before its warm label has nothing to measure; Run
// must say so instead of returning an empty result with no error.
func TestRunRejectsUnreachedWarmLabel(t *testing.T) {
	err := workload.Register(&workload.Workload{Name: "sim-test/halts-before-warm", WarmLabel: "measure", Source: `
	li   r1, 3
	halt
measure:
	addi r1, r1, 1
	halt
`})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{Workload: "sim-test/halts-before-warm", Arch: ArchFlywheel, Node: cacti.Node130})
	if err == nil || !strings.Contains(err.Error(), "sim-test/halts-before-warm") {
		t.Fatalf("Run = %+v, %v; want an error naming the workload", res, err)
	}
}
