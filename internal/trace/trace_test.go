package trace

import (
	"reflect"
	"sync"
	"testing"

	"flywheel/internal/asm"
	"flywheel/internal/emu"
)

// testProgram exercises every reconstruction path of the encoding: ALU
// chains, taken and not-taken branches, loads and stores with mixed
// strides, direct jumps, an indirect call/return pair (JALR), and halt.
const testProgram = `
        .data
buf:    .space 256
        .text
        la   r2, buf
        li   r1, 40
        li   r10, 0
loop:   ld   r3, 0(r2)
        addi r3, r3, 3
        sd   r3, 8(r2)
        lw   r4, 16(r2)
        sb   r4, 1(r2)
        jal  r31, sub
        addi r1, r1, -1
        bne  r1, r0, loop
        j    out
sub:    add  r10, r10, r3
        jalr r0, r31
out:    halt
`

func liveRecords(t *testing.T, limit uint64) []emu.Trace {
	t.Helper()
	prog, err := asm.Assemble("trace-test.s", testProgram)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(prog)
	s := emu.NewStream(m, limit)
	var out []emu.Trace
	for {
		tr, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, tr)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func record(t *testing.T, limit uint64) (*Recording, []emu.Trace) {
	t.Helper()
	prog, err := asm.Assemble("trace-test.s", testProgram)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(prog)
	rec := newRecording("k", 0, limit)
	tr := NewRecorder(rec, emu.NewStream(m, limit))
	var seen []emu.Trace
	buf := make([]emu.Trace, 7) // odd size: chunks fill mid-buffer
	for {
		n := tr.Fill(buf)
		if n == 0 {
			break
		}
		seen = append(seen, buf[:n]...)
	}
	tr.Finish()
	return rec, seen
}

func replay(t *testing.T, rec *Recording, limit uint64) []emu.Trace {
	t.Helper()
	r := NewReader(rec, limit, nil)
	var out []emu.Trace
	buf := make([]emu.Trace, 13)
	for {
		n := r.Fill(buf)
		if n == 0 {
			break
		}
		out = append(out, buf[:n]...)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundTripFullRun(t *testing.T) {
	live := liveRecords(t, 0)
	rec, seen := record(t, 0)
	if !reflect.DeepEqual(live, seen) {
		t.Fatal("recorder pass-through altered the stream")
	}
	if done, halted := rec.Complete(); !done || !halted {
		t.Fatalf("recording done=%v halted=%v, want true/true", done, halted)
	}
	got := replay(t, rec, 0)
	if len(got) != len(live) {
		t.Fatalf("replayed %d records, live produced %d", len(got), len(live))
	}
	for i := range got {
		if got[i] != live[i] {
			t.Fatalf("record %d differs:\n live  %+v\n replay %+v", i, live[i], got[i])
		}
	}
}

func TestPrefixReplayAtEveryBudget(t *testing.T) {
	live := liveRecords(t, 0)
	rec, _ := record(t, 0)
	for _, budget := range []uint64{1, 2, 5, uint64(len(live)) - 1, uint64(len(live)), uint64(len(live)) + 10} {
		got := replay(t, rec, budget)
		want := live
		if budget < uint64(len(live)) {
			want = live[:budget]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: prefix replay diverged (got %d records, want %d)", budget, len(got), len(want))
		}
	}
}

func TestTruncatedRecordingServesSmallerBudgets(t *testing.T) {
	rec, seen := record(t, 100)
	if done, halted := rec.Complete(); !done || halted {
		t.Fatalf("recording done=%v halted=%v, want true/false", done, halted)
	}
	if !rec.usableFor(100) || !rec.usableFor(17) {
		t.Fatal("recording should cover budgets <= its ceiling")
	}
	if rec.usableFor(101) || rec.usableFor(0) {
		t.Fatal("truncated recording must not claim budgets past its ceiling")
	}
	got := replay(t, rec, 17)
	if !reflect.DeepEqual(got, seen[:17]) {
		t.Fatal("prefix of truncated recording diverged")
	}
}

func TestConcurrentReaderStreamsBehindRecorder(t *testing.T) {
	prog, err := asm.Assemble("trace-test.s", testProgram)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(prog)
	rec := newRecording("k", 0, 0)
	trc := NewRecorder(rec, emu.NewStream(m, 0))

	var wg sync.WaitGroup
	wg.Add(1)
	var got []emu.Trace
	go func() {
		defer wg.Done()
		r := NewReader(rec, 0, nil)
		buf := make([]emu.Trace, 64)
		for {
			n := r.Fill(buf) // blocks while it is ahead of the recorder
			if n == 0 {
				return
			}
			got = append(got, buf[:n]...)
		}
	}()

	var want []emu.Trace
	buf := make([]emu.Trace, 64)
	for {
		n := trc.Fill(buf)
		if n == 0 {
			break
		}
		want = append(want, buf[:n]...)
	}
	trc.Finish()
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent reader saw a different stream than the recorder delivered")
	}
}

func TestFailedRecordingFallsBackMidStream(t *testing.T) {
	prog, err := asm.Assemble("trace-test.s", testProgram)
	if err != nil {
		t.Fatal(err)
	}
	live := liveRecords(t, 0)
	m := emu.New(prog)
	rec := newRecording("k", 0, 0)
	trc := NewRecorder(rec, emu.NewStream(m, 0))

	// Record ~3 chunks worth, then abort (as a dying timing run would).
	buf := make([]emu.Trace, 64)
	pulled := 0
	for pulled < 3*chunkRecords {
		n := trc.Fill(buf)
		if n == 0 {
			break
		}
		pulled += n
	}
	trc.Abort()

	fallback := func(skip uint64) (*emu.Stream, error) {
		fm := emu.New(prog)
		if _, err := fm.Run(skip); err != nil {
			return nil, err
		}
		return emu.NewStream(fm, 0), nil
	}
	r := NewReader(rec, 0, fallback)
	var got []emu.Trace
	for {
		n := r.Fill(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !r.FellBack() {
		t.Fatal("reader should have fallen back to live emulation")
	}
	if !reflect.DeepEqual(got, live) {
		t.Fatalf("fallback replay diverged: got %d records, want %d", len(got), len(live))
	}
}

func TestCacheGrantsAndStats(t *testing.T) {
	c := NewCache(Policy{})
	g := c.Acquire("w", 0, 500, nil)
	if g.Record == nil {
		t.Fatal("first acquisition must record")
	}
	// In-flight, covered budget: replay grant (would block; don't read it).
	if g2 := c.Acquire("w", 0, 100, nil); g2.Replay == nil {
		t.Fatal("covered budget during recording must replay")
	}
	// In-flight, larger budget: bypass.
	if g3 := c.Acquire("w", 0, 900, nil); g3.Record != nil || g3.Replay != nil {
		t.Fatal("uncovered budget during recording must bypass")
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Bypasses != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit / 1 bypass", s)
	}

	// Complete the recording truncated at its ceiling; a bigger budget then
	// replaces it with a fresh recording, a covered one replays.
	g.Record.markDone(false, nil)
	if g4 := c.Acquire("w", 0, 900, nil); g4.Record == nil {
		t.Fatal("budget past a truncated recording's ceiling must re-record")
	}
	if g5 := c.Acquire("w", 0, 900, nil); g5.Replay == nil {
		t.Fatal("second covered acquisition must replay the in-flight replacement")
	}
}

func TestCacheCapBlacklistsOversizedKey(t *testing.T) {
	c := NewCache(Policy{MaxBytes: 1}) // nothing fits
	prog, err := asm.Assemble("trace-test.s", testProgram)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Acquire("w", 0, 0, nil)
	if g.Record == nil {
		t.Fatal("first acquisition must record")
	}
	trc := NewRecorder(g.Record, emu.NewStream(emu.New(prog), 0))
	buf := make([]emu.Trace, 64)
	for trc.Fill(buf) > 0 {
	}
	trc.Finish()
	if done, _ := g.Record.Complete(); done {
		t.Fatal("recording over the cap must fail, not complete")
	}
	if g2 := c.Acquire("w", 0, 0, nil); g2.Record != nil || g2.Replay != nil {
		t.Fatal("cap-vetoed key must bypass on later acquisitions")
	}
	s := c.Stats()
	if s.ResidentBytes != 0 {
		t.Fatalf("vetoed recording left %d resident bytes", s.ResidentBytes)
	}
}

func TestSetPolicyClearsCapBlacklist(t *testing.T) {
	c := NewCache(Policy{MaxBytes: 1})
	prog, err := asm.Assemble("trace-test.s", testProgram)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Acquire("w", 0, 0, nil)
	trc := NewRecorder(g.Record, emu.NewStream(emu.New(prog), 0))
	buf := make([]emu.Trace, 64)
	for trc.Fill(buf) > 0 {
	}
	trc.Finish() // vetoed by the 1-byte cap: key blacklisted
	if g2 := c.Acquire("w", 0, 0, nil); g2.Record != nil || g2.Replay != nil {
		t.Fatal("capped key must bypass")
	}
	// Raising the cap must lift the blacklist.
	c.SetPolicy(Policy{})
	if g3 := c.Acquire("w", 0, 0, nil); g3.Record == nil {
		t.Fatal("raised cap must allow the key to record again")
	}
}
