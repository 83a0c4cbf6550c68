// Package emu implements the architectural (functional) emulator for the
// flywheel ISA. It is the golden model: the timing simulators in packages
// ooo and core are execution-driven, consuming the dynamic instruction
// stream this emulator produces, and the test suite checks that all three
// agree on final architectural state.
package emu

import (
	"fmt"
	"math"

	"flywheel/internal/asm"
	"flywheel/internal/isa"
	"flywheel/internal/mem"
)

// Machine is the architectural state of one program run.
type Machine struct {
	Prog    *asm.Program
	PC      uint64
	IntRegs [isa.NumIntRegs]uint64
	FPRegs  [isa.NumFPRegs]float64
	Mem     *mem.Memory
	Halted  bool
	// Retired counts executed instructions.
	Retired uint64

	// code is the predecoded fetch array: instruction i lives at address
	// CodeBase + 4*i. Step indexes it directly instead of going through
	// Prog.InstAt, keeping the hot loop free of interface and map work.
	code []isa.Instruction
}

// New loads the program image into a fresh machine.
func New(p *asm.Program) *Machine {
	m := &Machine{Prog: p, PC: p.Entry, Mem: mem.NewMemory(), code: p.Code}
	// Load the code image so the I-side of the timing models can treat
	// fetches as real memory reads.
	code := make([]byte, 0, len(p.Code)*isa.InstBytes)
	for _, in := range p.Code {
		w := isa.MustEncode(in)
		code = append(code, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	m.Mem.WriteBytes(asm.CodeBase, code)
	if len(p.Data) > 0 {
		m.Mem.WriteBytes(asm.DataBase, p.Data)
	}
	// Give programs a stack: sp (r29) starts high and grows down.
	m.IntRegs[29] = StackTop
	return m
}

// Snapshot is a frozen machine state: the register file plus a
// copy-on-write memory image. Cloning machines from a snapshot is O(1) in
// the memory footprint, so a warm-up phase executed once can seed any
// number of measurement runs (see workload.WarmState).
type Snapshot struct {
	prog    *asm.Program
	pc      uint64
	intRegs [isa.NumIntRegs]uint64
	fpRegs  [isa.NumFPRegs]float64
	halted  bool
	retired uint64
	mem     *mem.Snapshot
}

// Snapshot captures the machine's current architectural state. The machine
// remains usable; its memory switches to copy-on-write so the snapshot
// stays immutable.
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{
		prog:    m.Prog,
		pc:      m.PC,
		intRegs: m.IntRegs,
		fpRegs:  m.FPRegs,
		halted:  m.Halted,
		retired: m.Retired,
		mem:     m.Mem.Snapshot(),
	}
}

// Retired reports how many instructions had retired when the snapshot was
// taken.
func (s *Snapshot) Retired() uint64 { return s.retired }

// NewMachine clones a runnable machine from the snapshot. Clones share
// memory pages copy-on-write and may run concurrently.
func (s *Snapshot) NewMachine() *Machine {
	return &Machine{
		Prog:    s.prog,
		PC:      s.pc,
		IntRegs: s.intRegs,
		FPRegs:  s.fpRegs,
		Halted:  s.halted,
		Retired: s.retired,
		Mem:     s.mem.NewMemory(),
		code:    s.prog.Code,
	}
}

// StackTop is the initial stack pointer handed to programs.
const StackTop uint64 = 0x0100_0000

// Trace is the record of one executed instruction — the oracle information
// the timing simulators need: control-flow outcome, memory address, and the
// instruction itself (register dependencies).
type Trace struct {
	Seq    uint64 // dynamic instruction number, starting at 0
	PC     uint64
	Inst   isa.Instruction
	NextPC uint64 // architecturally correct next PC
	Taken  bool   // branches: true when the branch was taken
	Addr   uint64 // loads/stores: effective address
}

// IsMispredictable reports whether this instruction's outcome depends on
// dynamic state a predictor must guess (conditional direction or indirect
// target).
func (t Trace) IsMispredictable() bool {
	return t.Inst.Class() == isa.ClassBranch || t.Inst.Op == isa.JALR
}

// ReadReg returns the current value of an architected register as raw bits.
func (m *Machine) ReadReg(r isa.Reg) uint64 {
	switch {
	case r == isa.RegNone:
		return 0
	case r.IsFP():
		return math.Float64bits(m.FPRegs[r-isa.NumIntRegs])
	case r == 0:
		return 0
	default:
		return m.IntRegs[r]
	}
}

// WriteReg sets an architected register from raw bits. Writes to r0 and
// RegNone are ignored.
func (m *Machine) WriteReg(r isa.Reg, bits uint64) {
	switch {
	case r == isa.RegNone || r == 0:
	case r.IsFP():
		m.FPRegs[r-isa.NumIntRegs] = math.Float64frombits(bits)
	default:
		m.IntRegs[r] = bits
	}
}

// readInt returns a register as a signed integer.
func (m *Machine) readInt(r isa.Reg) int64 { return int64(m.ReadReg(r)) }

// readFP returns a register as a float.
func (m *Machine) readFP(r isa.Reg) float64 { return math.Float64frombits(m.ReadReg(r)) }

// writeInt sets a register from a signed integer.
func (m *Machine) writeInt(r isa.Reg, v int64) { m.WriteReg(r, uint64(v)) }

// writeFP sets a register from a float.
func (m *Machine) writeFP(r isa.Reg, v float64) { m.WriteReg(r, math.Float64bits(v)) }

// Step executes one instruction and returns its trace record.
// Calling Step on a halted machine is an error.
//
// The body is deliberately closure-free and fetches through the predecoded
// code array: this is the innermost loop of every simulation, and it must
// not allocate.
func (m *Machine) Step() (Trace, error) {
	if m.Halted {
		return Trace{}, fmt.Errorf("emu: step after halt at pc %#x", m.PC)
	}
	idx := m.PC - asm.CodeBase
	if m.PC < asm.CodeBase || idx%isa.InstBytes != 0 || idx/isa.InstBytes >= uint64(len(m.code)) {
		return Trace{}, fmt.Errorf("emu: pc %#x outside code section", m.PC)
	}
	in := m.code[idx/isa.InstBytes]
	tr := Trace{Seq: m.Retired, PC: m.PC, Inst: in, NextPC: m.PC + isa.InstBytes}

	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		m.writeInt(in.Rd, m.readInt(in.Rs1)+m.readInt(in.Rs2))
	case isa.SUB:
		m.writeInt(in.Rd, m.readInt(in.Rs1)-m.readInt(in.Rs2))
	case isa.AND:
		m.writeInt(in.Rd, m.readInt(in.Rs1)&m.readInt(in.Rs2))
	case isa.OR:
		m.writeInt(in.Rd, m.readInt(in.Rs1)|m.readInt(in.Rs2))
	case isa.XOR:
		m.writeInt(in.Rd, m.readInt(in.Rs1)^m.readInt(in.Rs2))
	case isa.SLL:
		m.writeInt(in.Rd, int64(m.ReadReg(in.Rs1)<<(m.ReadReg(in.Rs2)&63)))
	case isa.SRL:
		m.writeInt(in.Rd, int64(m.ReadReg(in.Rs1)>>(m.ReadReg(in.Rs2)&63)))
	case isa.SRA:
		m.writeInt(in.Rd, m.readInt(in.Rs1)>>(m.ReadReg(in.Rs2)&63))
	case isa.SLT:
		m.writeInt(in.Rd, boolToInt(m.readInt(in.Rs1) < m.readInt(in.Rs2)))
	case isa.SLTU:
		m.writeInt(in.Rd, boolToInt(m.ReadReg(in.Rs1) < m.ReadReg(in.Rs2)))
	case isa.ADDI:
		m.writeInt(in.Rd, m.readInt(in.Rs1)+int64(in.Imm))
	case isa.ANDI:
		m.writeInt(in.Rd, m.readInt(in.Rs1)&int64(in.Imm))
	case isa.ORI:
		m.writeInt(in.Rd, m.readInt(in.Rs1)|int64(in.Imm))
	case isa.XORI:
		m.writeInt(in.Rd, m.readInt(in.Rs1)^int64(in.Imm))
	case isa.SLTI:
		m.writeInt(in.Rd, boolToInt(m.readInt(in.Rs1) < int64(in.Imm)))
	case isa.SLLI:
		m.writeInt(in.Rd, int64(m.ReadReg(in.Rs1)<<(uint64(in.Imm)&63)))
	case isa.SRLI:
		m.writeInt(in.Rd, int64(m.ReadReg(in.Rs1)>>(uint64(in.Imm)&63)))
	case isa.SRAI:
		m.writeInt(in.Rd, m.readInt(in.Rs1)>>(uint64(in.Imm)&63))
	case isa.LUI:
		m.writeInt(in.Rd, int64(in.Imm)<<12)
	case isa.MUL:
		m.writeInt(in.Rd, m.readInt(in.Rs1)*m.readInt(in.Rs2))
	case isa.DIV:
		d := m.readInt(in.Rs2)
		if d == 0 {
			m.writeInt(in.Rd, -1) // divide by zero: all ones, RISC-V style
		} else {
			m.writeInt(in.Rd, m.readInt(in.Rs1)/d)
		}
	case isa.REM:
		d := m.readInt(in.Rs2)
		if d == 0 {
			m.writeInt(in.Rd, m.readInt(in.Rs1))
		} else {
			m.writeInt(in.Rd, m.readInt(in.Rs1)%d)
		}
	case isa.LD, isa.LW, isa.LB, isa.FLD:
		tr.Addr = uint64(m.readInt(in.Rs1) + int64(in.Imm))
		v := m.Mem.Read(tr.Addr, in.MemWidth())
		if in.Op == isa.FLD {
			m.WriteReg(in.Rd, v)
		} else {
			m.writeInt(in.Rd, int64(v)) // loads zero-extend
		}
	case isa.SD, isa.SW, isa.SB, isa.FSD:
		tr.Addr = uint64(m.readInt(in.Rs1) + int64(in.Imm))
		m.Mem.Write(tr.Addr, in.MemWidth(), m.ReadReg(in.Rs2))
	case isa.BEQ:
		m.branch(&tr, m.readInt(in.Rs1) == m.readInt(in.Rs2))
	case isa.BNE:
		m.branch(&tr, m.readInt(in.Rs1) != m.readInt(in.Rs2))
	case isa.BLT:
		m.branch(&tr, m.readInt(in.Rs1) < m.readInt(in.Rs2))
	case isa.BGE:
		m.branch(&tr, m.readInt(in.Rs1) >= m.readInt(in.Rs2))
	case isa.J:
		tr.Taken = true
		tr.NextPC = m.PC + uint64(int64(in.Imm))*isa.InstBytes
	case isa.JAL:
		tr.Taken = true
		m.writeInt(in.Rd, int64(m.PC+isa.InstBytes))
		tr.NextPC = m.PC + uint64(int64(in.Imm))*isa.InstBytes
	case isa.JALR:
		tr.Taken = true
		target := m.ReadReg(in.Rs1) &^ 3
		m.writeInt(in.Rd, int64(m.PC+isa.InstBytes))
		tr.NextPC = target
	case isa.FADD:
		m.writeFP(in.Rd, m.readFP(in.Rs1)+m.readFP(in.Rs2))
	case isa.FSUB:
		m.writeFP(in.Rd, m.readFP(in.Rs1)-m.readFP(in.Rs2))
	case isa.FMUL:
		m.writeFP(in.Rd, m.readFP(in.Rs1)*m.readFP(in.Rs2))
	case isa.FDIV:
		m.writeFP(in.Rd, m.readFP(in.Rs1)/m.readFP(in.Rs2))
	case isa.FNEG:
		m.writeFP(in.Rd, -m.readFP(in.Rs1))
	case isa.FMOV:
		m.writeFP(in.Rd, m.readFP(in.Rs1))
	case isa.FCVTIF:
		m.writeFP(in.Rd, float64(m.readInt(in.Rs1)))
	case isa.FCVTFI:
		m.writeInt(in.Rd, int64(m.readFP(in.Rs1)))
	case isa.FLT:
		m.writeInt(in.Rd, boolToInt(m.readFP(in.Rs1) < m.readFP(in.Rs2)))
	case isa.FEQ:
		m.writeInt(in.Rd, boolToInt(m.readFP(in.Rs1) == m.readFP(in.Rs2)))
	case isa.HALT:
		m.Halted = true
		tr.NextPC = m.PC
	default:
		return Trace{}, fmt.Errorf("emu: unimplemented op %v at pc %#x", in.Op, m.PC)
	}

	m.PC = tr.NextPC
	m.Retired++
	return tr, nil
}

// branch records a conditional branch outcome into the trace.
func (m *Machine) branch(tr *Trace, cond bool) {
	tr.Taken = cond
	if cond {
		tr.NextPC = m.PC + uint64(int64(tr.Inst.Imm))*isa.InstBytes
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Run executes until halt or until limit instructions have retired.
// It returns the number of instructions retired.
func (m *Machine) Run(limit uint64) (uint64, error) {
	start := m.Retired
	for !m.Halted && m.Retired-start < limit {
		if _, err := m.Step(); err != nil {
			return m.Retired - start, err
		}
	}
	return m.Retired - start, nil
}

// Stream adapts a Machine into the dynamic-trace iterator consumed by the
// timing simulators.
type Stream struct {
	m     *Machine
	limit uint64
	err   error
}

// NewStream returns a stream producing at most limit dynamic instructions
// (0 means unlimited: run to halt).
func NewStream(m *Machine, limit uint64) *Stream {
	return &Stream{m: m, limit: limit}
}

// Next returns the next dynamic instruction. ok is false once the machine
// halted, the limit was reached, or an error occurred (see Err).
func (s *Stream) Next() (Trace, bool) {
	if s.err != nil || s.m.Halted {
		return Trace{}, false
	}
	if s.limit > 0 && s.m.Retired >= s.limit {
		return Trace{}, false
	}
	tr, err := s.m.Step()
	if err != nil {
		s.err = err
		return Trace{}, false
	}
	return tr, true
}

// Fill batch-executes into the caller-owned buffer and returns how many
// trace records were produced. It stops early at halt, at the stream limit,
// or on an error (see Err). Fill performs no allocation of its own, so a
// consumer that reuses its buffer pays zero steady-state allocations for
// stream delivery.
func (s *Stream) Fill(buf []Trace) int {
	n := 0
	for n < len(buf) {
		if s.err != nil || s.m.Halted {
			break
		}
		if s.limit > 0 && s.m.Retired >= s.limit {
			break
		}
		tr, err := s.m.Step()
		if err != nil {
			s.err = err
			break
		}
		buf[n] = tr
		n++
	}
	return n
}

// Err reports a stream-terminating execution error, if any.
func (s *Stream) Err() error { return s.err }

// Machine exposes the underlying machine (for end-state checks).
func (s *Stream) Machine() *Machine { return s.m }
