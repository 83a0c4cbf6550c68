package trace

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"flywheel/internal/asm"
	"flywheel/internal/emu"
	"flywheel/internal/isa"
	"flywheel/internal/workload"
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

// TestEncoderRejectsUnreconstructableRecords: a record the encoding could
// not reproduce on decode must fail appendRecord and abort the recording,
// and a reader of the aborted recording must fall back to live emulation
// and still deliver exactly the live stream.
func TestEncoderRejectsUnreconstructableRecords(t *testing.T) {
	prog, err := asm.Assemble("seek-test.s", seekProgram)
	if err != nil {
		t.Fatal(err)
	}
	var live []emu.Trace
	s := emu.NewStream(emu.New(prog), 0)
	for tr, ok := s.Next(); ok; tr, ok = s.Next() {
		live = append(live, tr)
	}
	jalr := -1 // an indirect jump past the first published chunk
	for i := chunkRecords + 1; i < len(live); i++ {
		if live[i].Inst.Op == isa.JALR {
			jalr = i
			break
		}
	}
	if jalr < 0 {
		t.Fatal("seek program has no JALR past the first chunk")
	}
	const at = chunkRecords + chunkRecords/2 // mid-chunk, after one chunk published
	cases := []struct {
		name string
		// corrupt edits the stream and returns the index of the record
		// appendRecord must reject.
		corrupt func(recs []emu.Trace) int
		wantErr string
	}{
		{"sequence break", func(recs []emu.Trace) int {
			recs[at].Seq++
			return at
		}, "sequence break"},
		{"control-flow break", func(recs []emu.Trace) int {
			recs[at].PC += isa.InstBytes
			return at
		}, "control-flow break"},
		{"instruction differs from the program text", func(recs []emu.Trace) int {
			recs[at].Inst.Imm++
			return at
		}, "not the program's instruction"},
		{"first pc outside the code section", func(recs []emu.Trace) int {
			recs[0].PC = prog.CodeEnd()
			return 0
		}, "not the program's instruction"},
		{"indirect jump out of the code section", func(recs []emu.Trace) int {
			recs[jalr].NextPC = asm.CodeBase - isa.InstBytes
			recs[jalr+1].PC = recs[jalr].NextPC
			return jalr + 1
		}, "not the program's instruction"},
	}
	fallback := func(skip uint64) (*emu.Stream, error) {
		m := emu.New(prog)
		if _, err := m.Run(skip); err != nil {
			return nil, err
		}
		return emu.NewStream(m, 0), nil
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := append([]emu.Trace(nil), live...)
			bad := tc.corrupt(recs)

			enc := encoder{prog: prog}
			for i, tr := range recs[:bad] {
				if _, err := enc.appendRecord(tr); err != nil {
					t.Fatalf("record %d rejected before the corruption: %v", i, err)
				}
			}
			if _, err := enc.appendRecord(recs[bad]); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("appendRecord(record %d) = %v, want an error containing %q", bad, err, tc.wantErr)
			}

			rec := newRecording("k", 0, 0)
			trc := NewRecorder(rec, emu.NewStream(emu.New(prog), 0))
			for _, tr := range recs {
				trc.observe(tr)
			}
			trc.Finish()
			if done, _ := rec.Complete(); done {
				t.Fatal("recording with a rejected record completed")
			}
			r := NewReader(rec, 0, fallback)
			got := drainReader(t, r)
			if !r.FellBack() {
				t.Fatal("reader of the aborted recording did not fall back to live emulation")
			}
			if !reflect.DeepEqual(got, live) {
				t.Fatalf("fallback delivered %d records diverging from the %d live ones", len(got), len(live))
			}
		})
	}
}

// TestRecordingBytesPerRecord fences the encoding's footprint on the
// paper's kernels: recording each at 40k instructions from its warm point,
// as the simulator does, must cost at most 1 byte per record. The
// instruction of every record is the program text at its PC, so only
// branch outcomes, address deltas and indirect targets are stored.
func TestRecordingBytesPerRecord(t *testing.T) {
	const budget = 40_000
	c := NewCache(Policy{})
	var records uint64
	buf := make([]emu.Trace, 256)
	for _, w := range workload.All() {
		snap, err := w.WarmState()
		if err != nil {
			t.Fatal(err)
		}
		g := c.Acquire(w.Name, snap.Retired(), budget, nil)
		if g.Record == nil {
			t.Fatalf("%s: first acquisition did not record", w.Name)
		}
		trc := NewRecorder(g.Record, emu.NewStream(snap.NewMachine(), snap.Retired()+budget))
		for trc.Fill(buf) > 0 {
		}
		trc.Finish()
		if done, _ := g.Record.Complete(); !done {
			t.Fatalf("%s: recording did not complete", w.Name)
		}
		records += g.Record.Records()
	}
	s := c.Stats()
	if s.Entries != len(workload.Names()) || records == 0 {
		t.Fatalf("recorded %d records in %d recordings, want all %d kernels", records, s.Entries, len(workload.Names()))
	}
	perRecord := float64(s.ResidentBytes) / float64(records)
	t.Logf("%d records, %d resident bytes: %.3f B/record", records, s.ResidentBytes, perRecord)
	if perRecord > 1 {
		t.Fatalf("recordings cost %.3f B/record, want <= 1", perRecord)
	}
}
