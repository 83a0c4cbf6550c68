package ooo

import (
	"fmt"
	"strings"
	"testing"

	"flywheel/internal/asm"
	"flywheel/internal/emu"
	"flywheel/internal/pipe"
)

// runSrc assembles src, runs it through the baseline core and returns the
// run counters together with the (fully executed) architectural machine.
func runSrc(t *testing.T, src string, cfg Config) (pipe.Counters, *emu.Machine) {
	t.Helper()
	p, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := emu.New(p)
	core := New(cfg, emu.NewStream(m, 0))
	stats, err := core.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return stats, m
}

// ipc is the run's instructions per cycle.
func ipc(c pipe.Counters) float64 { return float64(c.Retired) / float64(c.BECycles) }

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxCycles = 5_000_000
	return cfg
}

// chainLoop builds a loop whose body is a serial dependency chain of length
// n, iterated iters times (steady-state dominated, warm I-cache).
func chainLoop(n, iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\tli r2, %d\n\tli r1, 0\nloop:\n", iters)
	for i := 0; i < n; i++ {
		b.WriteString("\taddi r1, r1, 1\n")
	}
	b.WriteString("\taddi r2, r2, -1\n\tbnez r2, loop\n\thalt\n")
	return b.String()
}

// wideLoop builds a loop whose body is n independent single-cycle ops.
func wideLoop(n, iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\tli r20, %d\nloop:\n", iters)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\taddi r%d, r0, %d\n", 1+i%16, i)
	}
	b.WriteString("\taddi r20, r20, -1\n\tbnez r20, loop\n\thalt\n")
	return b.String()
}

func TestRetiresEverythingTheOracleExecutes(t *testing.T) {
	src := `
	li r1, 50
	li r2, 0
loop:
	add r2, r2, r1
	addi r1, r1, -1
	bnez r1, loop
	halt
`
	stats, m := runSrc(t, src, testConfig())
	if stats.Retired != m.Retired {
		t.Errorf("core retired %d, oracle executed %d", stats.Retired, m.Retired)
	}
	if m.IntRegs[2] != 50*51/2 {
		t.Errorf("architectural result = %d, want %d", m.IntRegs[2], 50*51/2)
	}
	if stats.BECycles == 0 || stats.TimePS == 0 {
		t.Error("no time elapsed")
	}
}

func TestDependentChainIPCNearOne(t *testing.T) {
	stats, _ := runSrc(t, chainLoop(16, 400), testConfig())
	// 18 instructions per iteration, the 16-op chain bounds throughput at
	// ~1/cycle; loop control overlaps.
	if ipc(stats) > 1.35 {
		t.Errorf("dependent chain IPC = %.2f, want near 1 (back-to-back bound)", ipc(stats))
	}
	if ipc(stats) < 0.85 {
		t.Errorf("dependent chain IPC = %.2f, want near 1", ipc(stats))
	}
}

func TestIndependentOpsReachFetchBound(t *testing.T) {
	stats, _ := runSrc(t, wideLoop(16, 400), testConfig())
	// 18 useful instructions per iteration; fetch delivers at most one
	// aligned 4-instruction group per cycle, so ~2.5-3.6 IPC is healthy.
	if ipc(stats) < 2.2 {
		t.Errorf("independent ops IPC = %.2f, want fetch-bound >= 2.2", ipc(stats))
	}
}

func TestBackToBackLostWithPipelinedWakeup(t *testing.T) {
	src := chainLoop(16, 400)
	base, _ := runSrc(t, src, testConfig())
	cfg := testConfig()
	cfg.PipelinedWakeupSelect = true
	piped, _ := runSrc(t, src, cfg)

	// Dependent chain: every op waits one extra cycle -> roughly half the
	// throughput (Figure 2's dark bars show ~30-40% loss on real mixes).
	ratio := ipc(piped) / ipc(base)
	if ratio > 0.65 {
		t.Errorf("pipelined wake-up IPC ratio = %.2f, want <= 0.65 (lost back-to-back)", ratio)
	}
}

func TestExtraFrontEndStageCostsLittleOnPredictableCode(t *testing.T) {
	src := `
	li r1, 2000
	li r2, 0
loop:
	add r2, r2, r1
	addi r1, r1, -1
	bnez r1, loop
	halt
`
	base, _ := runSrc(t, src, testConfig())
	cfg := testConfig()
	cfg.ExtraFrontEndStages = 1
	deep, _ := runSrc(t, src, cfg)
	ratio := float64(deep.BECycles) / float64(base.BECycles)
	if ratio > 1.10 {
		t.Errorf("extra FE stage cost = %.1f%%, want small on predictable code", (ratio-1)*100)
	}
}

func TestMispredictsSlowExecution(t *testing.T) {
	// Data-dependent branch pattern driven by a 64-bit xorshift generator:
	// the 12-bit-history gshare cannot capture it.
	src := `
	li r1, 400        ; iterations
	li r2, 88172645   ; xorshift state
	li r6, 0
loop:
	slli r3, r2, 13
	xor  r2, r2, r3
	srli r3, r2, 7
	xor  r2, r2, r3
	slli r3, r2, 17
	xor  r2, r2, r3
	andi r5, r2, 1
	beqz r5, skip
	addi r6, r6, 1
skip:
	addi r1, r1, -1
	bnez r1, loop
	halt
`
	stats, _ := runSrc(t, src, testConfig())
	if stats.Mispredicts < 50 {
		t.Errorf("mispredicts = %d, want substantial on random branches", stats.Mispredicts)
	}

	// The same loop with the unpredictable branch removed must be faster.
	predictable := strings.Replace(src, "beqz r5, skip", "nop", 1)
	fast, _ := runSrc(t, predictable, testConfig())
	if ipc(fast) <= ipc(stats)*1.1 {
		t.Errorf("predictable IPC %.2f not clearly above unpredictable IPC %.2f", ipc(fast), ipc(stats))
	}
}

// chaseSrc builds a pointer-chasing microbenchmark over a circular list of
// nodes spaced 128 bytes apart (two cache lines), then chases links.
func chaseSrc(nodes, chases int) string {
	return fmt.Sprintf(`
	la r1, buf
	li r2, %d
init:
	addi r3, r1, 128
	sd r3, 0(r1)
	mv r1, r3
	addi r2, r2, -1
	bnez r2, init
	la r3, buf
	sd r3, 0(r1)      ; close the circle
	la r1, buf
	li r2, %d
chase:
	ld r1, 0(r1)
	addi r2, r2, -1
	bnez r2, chase
	halt
.data
buf:
	.space %d
`, nodes-1, chases, nodes*128+128)
}

func TestCacheMissesSlowDependentLoads(t *testing.T) {
	// 8192 nodes * 128 B = 1 MiB: misses all the way to memory.
	miss, _ := runSrc(t, chaseSrc(8192, 8192), testConfig())
	// 128 nodes * 128 B = 16 KiB: fits in L1D.
	hit, _ := runSrc(t, chaseSrc(128, 8192), testConfig())
	if miss.L1D.MissRate() < 0.4 {
		t.Errorf("large chase L1D miss rate = %.2f, want >= 0.4", miss.L1D.MissRate())
	}
	if miss.BECycles < hit.BECycles*3 {
		t.Errorf("missing chase (%d cycles) not clearly slower than hitting chase (%d)",
			miss.BECycles, hit.BECycles)
	}
}

func TestRenameCapacityLimitsInFlight(t *testing.T) {
	src := wideLoop(12, 400)
	cfg := testConfig()
	cfg.PhysRegs = 68 // only 4 in-flight destinations
	small, _ := runSrc(t, src, cfg)
	big, _ := runSrc(t, src, testConfig())
	if small.RenameStalls == 0 {
		t.Error("tiny register file caused no rename stalls")
	}
	if ipc(small) >= ipc(big)*0.8 {
		t.Errorf("tiny RF IPC %.2f not clearly below big RF IPC %.2f", ipc(small), ipc(big))
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	src := `
	la r1, buf
	li r2, 500
loop:
	sd r2, 0(r1)
	ld r3, 0(r1)      ; must forward from the store
	addi r2, r2, -1
	bnez r2, loop
	halt
.data
buf:
	.space 64
`
	stats, _ := runSrc(t, src, testConfig())
	if stats.Forwards < 400 {
		t.Errorf("forwards = %d, want ~500", stats.Forwards)
	}
}

func TestTimePSEqualsCyclesTimesPeriod(t *testing.T) {
	cfg := testConfig()
	cfg.PeriodPS = 777
	stats, _ := runSrc(t, "\tli r1, 5\n\thalt\n", cfg)
	if stats.TimePS != int64(stats.BECycles)*777 {
		t.Errorf("time %d != cycles %d * period 777", stats.TimePS, stats.BECycles)
	}
}

func TestMaxCyclesGuardFires(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCycles = 10
	src := "\tli r1, 10000\nloop:\n\taddi r1, r1, -1\n\tbnez r1, loop\n\thalt\n"
	p := asm.MustAssemble("t.s", src)
	core := New(cfg, emu.NewStream(emu.New(p), 0))
	if _, err := core.Run(); err == nil {
		t.Error("MaxCycles guard did not fire")
	}
}

func TestFPWorkloadUsesFPUnits(t *testing.T) {
	src := `
	la r1, vec
	li r2, 100
	fld f1, 0(r1)
	fld f2, 8(r1)
loop:
	fmul f3, f1, f2
	fadd f1, f1, f3
	addi r2, r2, -1
	bnez r2, loop
	halt
.data
vec:
	.double 1.000001, 0.999999
`
	stats, _ := runSrc(t, src, testConfig())
	if stats.FUIssued[2] == 0 { // GMem
		t.Error("no memory-port activity recorded")
	}
	fpOps := stats.FUIssued[3] + stats.FUIssued[4] // GFPAdd + GFPMulDiv
	if fpOps < 200 {
		t.Errorf("FP ops issued = %d, want >= 200", fpOps)
	}
}

func TestStatsConsistency(t *testing.T) {
	stats, m := runSrc(t, chainLoop(4, 100), testConfig())
	if stats.Dispatched != stats.Retired || stats.IWSelected != stats.Retired {
		t.Errorf("dispatched/issued/retired = %d/%d/%d, want equal (no wrong path)",
			stats.Dispatched, stats.IWSelected, stats.Retired)
	}
	if stats.Fetched != m.Retired {
		t.Errorf("fetched %d != executed %d", stats.Fetched, m.Retired)
	}
	if stats.IWInserted != stats.IWSelected {
		t.Errorf("IW inserted %d != selected %d", stats.IWInserted, stats.IWSelected)
	}
}
