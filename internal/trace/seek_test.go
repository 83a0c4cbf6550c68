package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"flywheel/internal/asm"
	"flywheel/internal/emu"
)

// seekProgram is testProgram with enough loop iterations to span several
// chunks (~5400 records against chunkRecords=1024), so seeks cross chunk
// boundaries and land at every in-chunk phase.
const seekProgram = `
        .data
buf:    .space 256
        .text
        la   r2, buf
        li   r1, 600
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

func seekRecording(t *testing.T) (*Recording, []emu.Trace) {
	t.Helper()
	prog, err := asm.Assemble("seek-test.s", seekProgram)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(prog)
	rec := newRecording(0, 0)
	tr := NewRecorder(rec, emu.NewStream(m, 0))
	var seen []emu.Trace
	buf := make([]emu.Trace, 64)
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

// TestSkipMatchesDiscard is the seek determinism property: a reader that
// skips k records and replays the rest must deliver exactly what a reader
// that read and discarded k records would — for k at chunk boundaries,
// either side of them, and at random positions.
func TestSkipMatchesDiscard(t *testing.T) {
	rec, full := seekRecording(t)
	total := uint64(len(full))
	if total <= chunkRecords {
		t.Fatalf("seek program produced %d records, need > %d for chunk crossings", total, chunkRecords)
	}

	ks := []uint64{0, 1, 2, chunkRecords - 1, chunkRecords, chunkRecords + 1,
		2*chunkRecords - 1, 2 * chunkRecords, 2*chunkRecords + 1,
		total - 1, total, total + 10}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 24; i++ {
		ks = append(ks, uint64(rng.Intn(int(total)+5)))
	}

	for _, k := range ks {
		r := NewReader(rec, 0)
		skipped := r.Skip(k)
		want := k
		if want > total {
			want = total
		}
		if skipped != want {
			t.Fatalf("Skip(%d) = %d, want %d", k, skipped, want)
		}
		got := drainReader(t, r)
		if len(got) != len(full[want:]) || (len(got) > 0 && !reflect.DeepEqual(got, full[want:])) {
			t.Fatalf("k=%d: replay after seek diverged from discard replay (got %d records, want %d)", k, len(got), len(full[want:]))
		}
	}
}

// TestSkipInterleavedWithReads walks a reader through random alternations
// of Skip and Fill and checks every delivered record against the reference
// stream; this exercises the same-chunk fast path (cursor already inside
// the target chunk) as well as cross-chunk repositioning from mid-chunk
// decoder states.
func TestSkipInterleavedWithReads(t *testing.T) {
	rec, full := seekRecording(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		r := NewReader(rec, 0)
		pos := uint64(0)
		buf := make([]emu.Trace, 97)
		for pos < uint64(len(full)) {
			if rng.Intn(2) == 0 {
				k := uint64(rng.Intn(700))
				skipped := r.Skip(k)
				want := k
				if left := uint64(len(full)) - pos; left < want {
					want = left
				}
				if skipped != want {
					t.Fatalf("trial %d pos %d: Skip(%d) = %d, want %d", trial, pos, k, skipped, want)
				}
				pos += skipped
			} else {
				n := r.Fill(buf[:1+rng.Intn(len(buf))])
				if n == 0 {
					break
				}
				for i := 0; i < n; i++ {
					if buf[i] != full[pos+uint64(i)] {
						t.Fatalf("trial %d: record %d differs after interleaved seek", trial, pos+uint64(i))
					}
				}
				pos += uint64(n)
			}
		}
		if pos != uint64(len(full)) {
			t.Fatalf("trial %d: reader ended at %d of %d", trial, pos, len(full))
		}
	}
}

// TestSkipRespectsLimit: a budget-limited reader must not seek past its
// delivery limit, and the post-seek replay must still be the exact prefix
// remainder.
func TestSkipRespectsLimit(t *testing.T) {
	rec, full := seekRecording(t)
	const limit = 1500
	r := NewReader(rec, limit)
	if got := r.Skip(1200); got != 1200 {
		t.Fatalf("Skip(1200) = %d", got)
	}
	if got := r.Skip(1000); got != limit-1200 {
		t.Fatalf("Skip past limit returned %d, want %d", got, limit-1200)
	}
	if got := r.Skip(1); got != 0 {
		t.Fatalf("Skip at limit returned %d, want 0", got)
	}
	if got := drainReader(t, r); len(got) != 0 {
		t.Fatalf("reader delivered %d records past its limit", len(got))
	}
	r2 := NewReader(rec, limit)
	if got := r2.Skip(700); got != 700 {
		t.Fatalf("Skip(700) = %d", got)
	}
	if got := drainReader(t, r2); !reflect.DeepEqual(got, full[700:limit]) {
		t.Fatalf("limited replay after seek diverged (%d records, want %d)", len(got), limit-700)
	}
}

func drainReader(t *testing.T, r *Reader) []emu.Trace {
	t.Helper()
	var out []emu.Trace
	buf := make([]emu.Trace, 53)
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
