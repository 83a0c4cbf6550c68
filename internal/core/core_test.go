package core

import (
	"fmt"
	"strings"
	"testing"

	"flywheel/internal/asm"
	"flywheel/internal/emu"
	"flywheel/internal/ooo"
	"flywheel/internal/pipe"
)

// runFlywheel assembles src and runs it on the Flywheel core.
func runFlywheel(t *testing.T, src string, cfg Config) (pipe.Counters, *emu.Machine) {
	t.Helper()
	p, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := emu.New(p)
	c := New(cfg, emu.NewStream(m, 0))
	stats, err := c.Run()
	if err != nil {
		t.Fatalf("flywheel run: %v", err)
	}
	return stats, m
}

// runBaseline runs the same source on the baseline core for comparison.
func runBaseline(t *testing.T, src string) pipe.Counters {
	t.Helper()
	p, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg := ooo.DefaultConfig()
	cfg.MaxCycles = 10_000_000
	c := ooo.New(cfg, emu.NewStream(emu.New(p), 0))
	stats, err := c.Run()
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return stats
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxCycles = 10_000_000
	return cfg
}

// loopSrc is a predictable loop with enough body to form issue units.
func loopSrc(iters int) string {
	return fmt.Sprintf(`
	li r1, %d
	li r2, 0
	li r3, 1
loop:
	add r2, r2, r1
	add r4, r2, r3
	xor r5, r4, r1
	addi r1, r1, -1
	bnez r1, loop
	halt
`, iters)
}

func TestFlywheelRetiresEverything(t *testing.T) {
	stats, m := runFlywheel(t, loopSrc(500), testConfig())
	if stats.Retired != m.Retired {
		t.Errorf("flywheel retired %d, oracle executed %d", stats.Retired, m.Retired)
	}
	if m.IntRegs[2] != uint64(500*501/2) {
		t.Errorf("architectural result = %d", m.IntRegs[2])
	}
}

func TestFlywheelEntersReplayOnLoops(t *testing.T) {
	stats, _ := runFlywheel(t, loopSrc(3000), testConfig())
	if stats.EC.TracesBuilt == 0 {
		t.Fatal("no traces were built")
	}
	if stats.EC.TracesReplayed == 0 {
		t.Fatal("no traces were replayed")
	}
	if r := float64(stats.ReplayPS) / float64(stats.TimePS); r < 0.5 {
		t.Errorf("EC residency = %.2f on a tight loop, want > 0.5", r)
	}
	if stats.IssuedReplay == 0 {
		t.Error("no instructions issued from the EC path")
	}
}

func TestFlywheelMatchesOracleWithECDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.ECEnabled = false
	stats, m := runFlywheel(t, loopSrc(500), cfg)
	if stats.Retired != m.Retired {
		t.Errorf("register-allocation config retired %d, oracle %d", stats.Retired, m.Retired)
	}
	if stats.ReplayPS != 0 || stats.IssuedReplay != 0 {
		t.Error("EC-disabled config used the EC")
	}
}

func TestFlywheelComparableToBaselineAtEqualClocks(t *testing.T) {
	src := loopSrc(3000)
	base := runBaseline(t, src)
	fw, _ := runFlywheel(t, src, testConfig())
	ratio := float64(base.TimePS) / float64(fw.TimePS) // >1 means flywheel faster
	if ratio < 0.75 || ratio > 1.6 {
		t.Errorf("flywheel/baseline speed ratio at equal clocks = %.2f, want near 1", ratio)
	}
}

func TestFlywheelFasterWithBoostedClocks(t *testing.T) {
	src := loopSrc(3000)
	base := runBaseline(t, src)
	cfg := testConfig()
	cfg.FEBoostPct = 50
	cfg.BEBoostPct = 50
	fw, _ := runFlywheel(t, src, cfg)
	speedup := float64(base.TimePS) / float64(fw.TimePS)
	if speedup < 1.15 {
		t.Errorf("FE50/BE50 speedup = %.2f, want clearly above 1", speedup)
	}
}

func TestFlywheelHandlesDivergences(t *testing.T) {
	// Data-dependent branches (xorshift) force trace divergences.
	src := `
	li r1, 2000
	li r2, 88172645
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
	stats, m := runFlywheel(t, src, testConfig())
	if stats.Retired != m.Retired {
		t.Fatalf("retired %d, oracle %d", stats.Retired, m.Retired)
	}
	if stats.EC.TracesReplayed > 0 && stats.Divergences == 0 {
		t.Error("replayed unpredictable traces without any divergence")
	}
}

func TestFlywheelNestedCallsAndMemory(t *testing.T) {
	src := `
.global main
main:
	li  r4, 14
	call fib
	halt
fib:
	slti r6, r4, 2
	beqz r6, rec
	mv   r5, r4
	ret
rec:
	addi sp, sp, -24
	sd   ra, 0(sp)
	sd   r4, 8(sp)
	addi r4, r4, -1
	call fib
	sd   r5, 16(sp)
	ld   r4, 8(sp)
	addi r4, r4, -2
	call fib
	ld   r6, 16(sp)
	add  r5, r5, r6
	ld   ra, 0(sp)
	addi sp, sp, 24
	ret
`
	stats, m := runFlywheel(t, src, testConfig())
	if stats.Retired != m.Retired {
		t.Fatalf("retired %d, oracle %d", stats.Retired, m.Retired)
	}
	if m.IntRegs[5] != 377 {
		t.Errorf("fib(14) = %d, want 377", m.IntRegs[5])
	}
}

func TestFlywheelRenamePoolStalls(t *testing.T) {
	// Hammer one destination register from a wide loop: the per-register
	// pool is the bottleneck the paper's Figure 11 highlights.
	var b strings.Builder
	b.WriteString("\tli r20, 2000\nloop:\n")
	for i := 0; i < 10; i++ {
		b.WriteString("\taddi r1, r0, 1\n") // all write r1
	}
	b.WriteString("\taddi r20, r20, -1\n\tbnez r20, loop\n\thalt\n")
	cfg := testConfig()
	cfg.Pools = PoolConfig{TotalRegs: 256, MinPool: 2, MaxPool: 16} // pools of 4
	stats, _ := runFlywheel(t, b.String(), cfg)
	if stats.RenameStalls == 0 {
		t.Error("no rename stalls under heavy single-register pressure")
	}
}

func TestFlywheelRedistributionTriggers(t *testing.T) {
	var b strings.Builder
	b.WriteString("\tli r20, 30000\nloop:\n")
	for i := 0; i < 10; i++ {
		b.WriteString("\taddi r1, r0, 1\n")
	}
	b.WriteString("\taddi r20, r20, -1\n\tbnez r20, loop\n\thalt\n")
	cfg := testConfig()
	cfg.Pools = PoolConfig{TotalRegs: 256, MinPool: 2, MaxPool: 16}
	cfg.RedistributionInterval = 20_000 // accelerate for the test
	cfg.RedistributionMinStalls = 16
	stats, m := runFlywheel(t, b.String(), cfg)
	if stats.Redistributions == 0 {
		t.Error("pool redistribution never triggered under pressure")
	}
	if stats.EC.Invalidations != stats.Redistributions {
		t.Errorf("%d EC invalidations for %d redistributions", stats.EC.Invalidations, stats.Redistributions)
	}
	if stats.Retired != m.Retired {
		t.Errorf("retired %d, oracle %d", stats.Retired, m.Retired)
	}
}

func TestFlywheelReplayResourceStalls(t *testing.T) {
	// Two serial divides per iteration hold retirement while replay keeps
	// issuing: a 12-entry ROB fills in trace execution.
	src := `
	li r1, 3000
	li r2, 7
	li r3, 3
loop:
	div r4, r2, r3
	div r5, r4, r3
	add r6, r6, r5
	add r7, r7, r1
	add r8, r8, r1
	addi r1, r1, -1
	bnez r1, loop
	halt
`
	cfg := testConfig()
	cfg.ROBSize = 12
	stats, m := runFlywheel(t, src, cfg)
	if stats.Retired != m.Retired {
		t.Fatalf("retired %d, oracle %d", stats.Retired, m.Retired)
	}
	if stats.IssuedReplay == 0 || stats.ReplayStallResource == 0 {
		t.Errorf("replay issued %d with %d resource stalls, want both nonzero", stats.IssuedReplay, stats.ReplayStallResource)
	}
}

func TestFlywheelStoreLoadHeavy(t *testing.T) {
	src := `
	la r1, buf
	li r2, 2000
loop:
	sd r2, 0(r1)
	ld r3, 0(r1)
	sd r3, 8(r1)
	ld r4, 8(r1)
	addi r2, r2, -1
	bnez r2, loop
	halt
.data
buf:
	.space 64
`
	stats, m := runFlywheel(t, src, testConfig())
	if stats.Retired != m.Retired {
		t.Fatalf("retired %d, oracle %d", stats.Retired, m.Retired)
	}
}

func TestFlywheelModeAccountingConsistent(t *testing.T) {
	stats, _ := runFlywheel(t, loopSrc(2000), testConfig())
	if stats.ReplayPS <= 0 || stats.ReplayPS >= stats.TimePS {
		t.Errorf("trace-execution time %d outside (0, total %d)", stats.ReplayPS, stats.TimePS)
	}
	if stats.ReplayCycles == 0 || stats.ReplayCycles >= stats.BECycles {
		t.Errorf("trace-execution cycles %d outside (0, total %d)", stats.ReplayCycles, stats.BECycles)
	}
	if stats.IWSelected+stats.IssuedReplay != stats.Retired {
		t.Errorf("issued %d+%d != retired %d (no wrong path exists)",
			stats.IWSelected, stats.IssuedReplay, stats.Retired)
	}
}

func TestFlywheelECDisabledNeverGatesFE(t *testing.T) {
	cfg := testConfig()
	cfg.ECEnabled = false
	stats, _ := runFlywheel(t, loopSrc(1000), cfg)
	if stats.FEGatedCycles > 0 {
		t.Errorf("front-end gated %d cycles with EC disabled", stats.FEGatedCycles)
	}
	if stats.ModeSwitches > 0 {
		t.Errorf("mode switched %d times with EC disabled", stats.ModeSwitches)
	}
}

// recordedSource replays a recorded instruction stream.
type recordedSource struct {
	recs []emu.Trace
	next int
}

func (s *recordedSource) Next() (emu.Trace, bool) {
	if s.next == len(s.recs) {
		return emu.Trace{}, false
	}
	s.next++
	return s.recs[s.next-1], true
}

// TestRegAllocIgnoresBEBoost: without the Execution Cache the machine
// never enters trace-execution mode, so it has no fast back-end clock. Its
// BEFastPeriodPS is the base period at any BEBoostPct, and a Register
// Allocation core run over one recorded stream reports identical counters at
// BE+0% and BE+100%.
func TestRegAllocIgnoresBEBoost(t *testing.T) {
	cfg := testConfig()
	cfg.ECEnabled = false
	cfg.FEBoostPct = 50
	for _, be := range []int{0, 50, 100, 250} {
		cfg.BEBoostPct = be
		if got := cfg.BEFastPeriodPS(); got != cfg.BasePeriodPS {
			t.Errorf("BE+%d%%: BEFastPeriodPS %d, want the base period %d", be, got, cfg.BasePeriodPS)
		}
	}
	p, err := asm.Assemble("test.s", loopSrc(3000))
	if err != nil {
		t.Fatal(err)
	}
	var recs []emu.Trace
	for s := emu.NewStream(emu.New(p), 0); ; {
		tr, ok := s.Next()
		if !ok {
			break
		}
		recs = append(recs, tr)
	}
	var stats [2]pipe.Counters
	for i, be := range []int{0, 100} {
		cfg.BEBoostPct = be
		stats[i], err = New(cfg, &recordedSource{recs: recs}).Run()
		if err != nil {
			t.Fatal(err)
		}
	}
	if stats[0].Retired != uint64(len(recs)) {
		t.Fatalf("retired %d of %d recorded instructions", stats[0].Retired, len(recs))
	}
	if stats[0] != stats[1] {
		t.Errorf("BE+0%% and BE+100%% differ:\n be0   %+v\n be100 %+v", stats[0], stats[1])
	}
}
