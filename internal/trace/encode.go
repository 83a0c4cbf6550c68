package trace

import (
	"encoding/binary"
	"fmt"

	"flywheel/internal/asm"
	"flywheel/internal/emu"
	"flywheel/internal/isa"
)

// The columnar chunk encoding. A dynamic instruction stream is highly
// redundant: the PC of every record equals the NextPC of the record before
// it, the instruction at a PC is the program text there, the next PC of
// almost every instruction is statically determined by the instruction
// itself, and sequence numbers are consecutive. A chunk therefore stores
// only the irreducible dynamic information, one column per kind so each
// compresses on its own terms:
//
//   - taken:   one bit per record, the branch outcome stream.
//   - addrs:   zigzag-varint deltas of effective addresses, present only
//     for loads and stores (strided kernels collapse to ~1 byte/access).
//   - targets: indirect jump targets (JALR is the only instruction whose
//     next PC is not derivable), 8 bytes each, rare.
//
// Everything else — Seq, PC, Inst, NextPC, the Taken flag of unconditional
// jumps — is reconstructed during decode by replaying the PC chain from the
// chunk's base and reading each instruction from the recorded program's
// predecoded code, which every chunk references and none copies. Decode is
// exact: a decoded record is byte-identical to the emu.Trace record that
// was encoded (pinned by the differential tests).
//
// Chunks are immutable once published. The recorder fills a private open
// chunk and publishes it when full, so the memory cap is checked as the
// recording grows, not only at its end.

// chunkRecords is the record capacity of one chunk. Small enough that a
// seek decodes little of its target chunk and the memory cap sees a
// recording grow in fine steps, large enough that per-chunk overheads
// vanish.
const chunkRecords = 1024

// chunk is one immutable run of consecutive records in columnar form.
type chunk struct {
	baseSeq uint64 // Seq of record 0
	basePC  uint64 // PC of record 0
	n       int    // records encoded

	code    []isa.Instruction // the program's text (asm.Program.Code), shared
	taken   []byte            // bitset, bit i = record i's Taken flag
	addrs   []byte            // zigzag varint address deltas, loads/stores only
	targets []uint64          // JALR next PCs, in record order
}

// sizeBytes is the chunk's resident footprint (column payloads only; the
// fixed header is noise and the shared code belongs to the program).
func (c *chunk) sizeBytes() int64 {
	return int64(len(c.taken)) + int64(len(c.addrs)) + int64(len(c.targets))*8
}

// encoder builds chunks from a sequential record stream of one program.
type encoder struct {
	prog     *asm.Program // the recorded program
	open     *chunk
	nextSeq  uint64
	nextPC   uint64
	prevAddr uint64 // address delta chain, reset per chunk
	started  bool
	scratch  [binary.MaxVarintLen64]byte
}

// appendRecord encodes one record into the open chunk, opening one as
// needed, and returns the chunk if this record filled it (the caller
// publishes full chunks). It fails when the stream violates the sequential
// contract (Seq or PC chain breaks) or a record's instruction is not the
// program text at its PC, either of which would make reconstruction wrong.
func (e *encoder) appendRecord(tr emu.Trace) (full *chunk, err error) {
	if e.started {
		if tr.Seq != e.nextSeq {
			return nil, fmt.Errorf("trace: sequence break: got seq %d, want %d", tr.Seq, e.nextSeq)
		}
		if tr.PC != e.nextPC {
			return nil, fmt.Errorf("trace: control-flow break: record %d at pc %#x, previous NextPC %#x", tr.Seq, tr.PC, e.nextPC)
		}
	}
	if in, ok := e.prog.InstAt(tr.PC); !ok || in != tr.Inst {
		return nil, fmt.Errorf("trace: record %d at pc %#x is not the program's instruction there", tr.Seq, tr.PC)
	}
	if e.open == nil {
		e.open = &chunk{
			baseSeq: tr.Seq,
			basePC:  tr.PC,
			code:    e.prog.Code,
			taken:   make([]byte, 0, chunkRecords/8),
		}
		e.prevAddr = 0
	}
	c := e.open
	i := c.n
	if i%8 == 0 {
		c.taken = append(c.taken, 0)
	}
	if tr.Taken {
		c.taken[i/8] |= 1 << (i % 8)
	}
	switch tr.Inst.Class() {
	case isa.ClassLoad, isa.ClassStore:
		d := int64(tr.Addr - e.prevAddr)
		n := binary.PutUvarint(e.scratch[:], zigzag(d))
		c.addrs = append(c.addrs, e.scratch[:n]...)
		e.prevAddr = tr.Addr
	}
	if tr.Inst.Op == isa.JALR {
		c.targets = append(c.targets, tr.NextPC)
	}
	c.n++
	e.started = true
	e.nextSeq = tr.Seq + 1
	e.nextPC = tr.NextPC
	if c.n >= chunkRecords {
		e.open = nil
		return c, nil
	}
	return nil, nil
}

// take closes and returns the open partial chunk, if any (end of stream).
func (e *encoder) take() *chunk {
	c := e.open
	e.open = nil
	return c
}

// decoder replays one chunk sequentially.
type decoder struct {
	c       *chunk
	i       int    // next record index
	pc      uint64 // PC of record i
	addr    uint64 // address delta chain
	addrOff int    // read offset into c.addrs
	tgt     int    // read offset into c.targets
}

func newDecoder(c *chunk) decoder {
	return decoder{c: c, pc: c.basePC}
}

// next decodes the record at the cursor. Calling next past the end is a
// caller bug (the reader bounds its cursor by the published record count).
func (d *decoder) next() emu.Trace {
	c := d.c
	i := d.i
	in := c.code[(d.pc-asm.CodeBase)/isa.InstBytes]
	tr := emu.Trace{
		Seq:    c.baseSeq + uint64(i),
		PC:     d.pc,
		Inst:   in,
		NextPC: d.pc + isa.InstBytes,
		Taken:  c.taken[i/8]&(1<<(i%8)) != 0,
	}
	switch in.Class() {
	case isa.ClassLoad, isa.ClassStore:
		delta, n := binary.Uvarint(c.addrs[d.addrOff:])
		d.addrOff += n
		d.addr += uint64(unzigzag(delta))
		tr.Addr = d.addr
	case isa.ClassBranch:
		if tr.Taken {
			tr.NextPC = d.pc + uint64(int64(in.Imm))*isa.InstBytes
		}
	case isa.ClassJump:
		if in.Op == isa.JALR {
			tr.NextPC = c.targets[d.tgt]
			d.tgt++
		} else {
			tr.NextPC = d.pc + uint64(int64(in.Imm))*isa.InstBytes
		}
	case isa.ClassHalt:
		tr.NextPC = d.pc
	}
	d.i++
	d.pc = tr.NextPC
	return tr
}

// zigzag maps signed deltas onto unsigned varint-friendly space.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
