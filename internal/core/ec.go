// Package core implements the paper's contribution: the Flywheel
// microarchitecture. It combines a Dual-Clock Issue Window (the pipeline
// front-end runs in its own, faster clock domain and writes into the issue
// window across a synchronizing interface, §3.2), Pre-Scheduled Execution
// through an Execution Cache placed after the issue stage (§3.3), and the
// two-phase register renaming mechanism with per-architected-register
// physical pools, remapping tables and trace-change checkpoints that makes
// trace replay possible without re-renaming (§3.4-3.5).
//
// The machine has two operating modes. In trace-creation mode instructions
// flow through the conventional front-end while the issue units leaving the
// Issue Window are recorded, in issue order, into the Execution Cache. In
// trace-execution mode the front-end and the wake-up/select logic are
// clock-gated: issue units stream from the Execution Cache directly to the
// execution core, which then runs at a higher clock frequency (both
// back-end speeds derive from one master clock, so switching is cheap).
package core

import (
	"flywheel/internal/isa"
	"flywheel/internal/pipe"
)

// Slot is one instruction as stored in the Execution Cache: the decoded
// instruction, its position in the dynamic trace, its logical rename IDs,
// and whether it starts a new issue unit.
type Slot struct {
	PC   uint64
	Inst isa.Instruction
	// SeqOffset is the dynamic-sequence distance from the trace start;
	// replay uses it to pair the slot with the right oracle record even
	// though slots are stored in issue order, not program order.
	SeqOffset uint32
	// LID carries the logical rename IDs (dest, src1, src2) assigned in
	// the Rename stage during trace creation.
	LID [3]uint16
	// UnitStart marks the first slot of an issue unit: the group of
	// independent instructions that issued together during creation and
	// issue together again on replay.
	UnitStart bool
}

// ECConfig sizes the Execution Cache (Table 2: 128K, 2-way set-associative,
// three-cycle access, eight-instruction blocks).
type ECConfig struct {
	SizeBytes  int
	Ways       int
	BlockSlots int // instructions per data-array block
	SlotBytes  int // storage footprint per slot
	ReadCycles int // data-array block access latency
	TagEntries int // tag-array capacity (associative)
	// MaxTraceBlocks caps trace length so a trace cannot wrap around the
	// whole data array and collide with itself.
	MaxTraceBlocks int
}

// DefaultECConfig returns the paper's Execution Cache parameters.
func DefaultECConfig() ECConfig {
	return ECConfig{
		SizeBytes:      128 << 10,
		Ways:           2,
		BlockSlots:     8,
		SlotBytes:      8,
		ReadCycles:     3,
		TagEntries:     512,
		MaxTraceBlocks: 48,
	}
}

// NumSets returns the number of data-array sets.
func (c ECConfig) NumSets() int {
	return c.SizeBytes / (c.Ways * c.BlockSlots * c.SlotBytes)
}

type ecBlock struct {
	valid   bool
	traceID uint64
	seq     int // position of this block within its trace
	last    bool
	// successor is the address execution continued at when the trace was
	// built (valid on the last block): the trace cache's next-trace
	// prediction, verified when the trace's ending control resolves.
	successor uint64
	slots     []Slot
	lru       uint64
}

type taEntry struct {
	pc      uint64
	traceID uint64
	set     int
	way     int
	lru     uint64
}

// EC is the Execution Cache: an associative Tag Array mapping trace start
// addresses to the first data-array block, and a set-associative Data Array
// whose blocks chain through consecutive sets (the next chunk of a trace
// always lives in the following set, so no per-access lookup is needed —
// the Pentium-4-style organization of §3.3/Figure 7).
type EC struct {
	cfg     ECConfig
	sets    [][]ecBlock
	tags    []taEntry
	clock   uint64
	nextTID uint64
	Stats   pipe.ECStats
	// spare recycles the last finished Builder (and its pending buffer):
	// the core runs at most one builder at a time, and trace creation is
	// frequent enough that a fresh allocation per trace dominates the
	// simulator's heap churn.
	spare *Builder
}

// NewEC builds an empty Execution Cache.
func NewEC(cfg ECConfig) *EC {
	numSets := cfg.NumSets()
	if numSets <= 0 || cfg.Ways <= 0 || cfg.BlockSlots <= 0 {
		panic("core: invalid EC configuration")
	}
	sets := make([][]ecBlock, numSets)
	blocks := make([]ecBlock, numSets*cfg.Ways)
	for i := range sets {
		sets[i], blocks = blocks[:cfg.Ways], blocks[cfg.Ways:]
	}
	return &EC{cfg: cfg, sets: sets, nextTID: 1}
}

func (e *EC) startSet(pc uint64) int {
	return int((pc >> 2) % uint64(len(e.sets)))
}

// Lookup searches the Tag Array for a trace starting at pc and validates
// that its first block still exists (blocks may have been overwritten by
// newer traces — invalidation is lazy).
func (e *EC) Lookup(pc uint64) (Reader, bool) {
	e.Stats.TagLookups++
	e.clock++
	for i := range e.tags {
		t := &e.tags[i]
		if t.pc != pc {
			continue
		}
		b := &e.sets[t.set][t.way]
		if !b.valid || b.traceID != t.traceID || b.seq != 0 {
			// First block overwritten: drop the stale tag entry.
			e.tags[i] = e.tags[len(e.tags)-1]
			e.tags = e.tags[:len(e.tags)-1]
			return Reader{}, false
		}
		t.lru = e.clock
		e.Stats.TagHits++
		e.Stats.TracesReplayed++
		return Reader{ec: e, traceID: t.traceID, set: t.set, way: t.way}, true
	}
	return Reader{}, false
}

// Resident reports whether a live trace starts at pc, without touching LRU
// state, statistics, or the lazy stale-tag cleanup. The sampled-execution
// scratch policy uses it: a post-resume cold build is discarded only when
// it would replace a resident trace — holes in the cache are still filled,
// so later windows over the same code replay instead of rebuilding.
func (e *EC) Resident(pc uint64) bool {
	for i := range e.tags {
		t := &e.tags[i]
		if t.pc != pc {
			continue
		}
		b := &e.sets[t.set][t.way]
		return b.valid && b.traceID == t.traceID && b.seq == 0
	}
	return false
}

// registerTag adds a completed trace to the Tag Array, evicting the LRU
// entry when full and replacing any older trace with the same start pc.
func (e *EC) registerTag(pc uint64, traceID uint64, set, way int) {
	e.clock++
	for i := range e.tags {
		if e.tags[i].pc == pc {
			e.tags[i] = taEntry{pc, traceID, set, way, e.clock}
			return
		}
	}
	if len(e.tags) < e.cfg.TagEntries {
		e.tags = append(e.tags, taEntry{pc, traceID, set, way, e.clock})
		return
	}
	victim := 0
	for i := range e.tags {
		if e.tags[i].lru < e.tags[victim].lru {
			victim = i
		}
	}
	e.tags[victim] = taEntry{pc, traceID, set, way, e.clock}
}

// writeBlock allocates a block in the given set (LRU way) and fills it.
func (e *EC) writeBlock(set int, traceID uint64, seq int, slots []Slot, last bool, successor uint64) int {
	e.clock++
	ways := e.sets[set]
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	// Reuse the victim's backing array: replay copies block slots into its
	// fill buffer synchronously inside ReadBlock's caller, so no reader
	// holds this storage across a write.
	stored := ways[victim].slots
	if cap(stored) >= len(slots) {
		stored = stored[:len(slots)]
	} else {
		bcap := e.cfg.BlockSlots
		if len(slots) > bcap {
			bcap = len(slots)
		}
		stored = make([]Slot, len(slots), bcap)
	}
	copy(stored, slots)
	ways[victim] = ecBlock{
		valid: true, traceID: traceID, seq: seq, last: last,
		successor: successor, slots: stored, lru: e.clock,
	}
	e.Stats.BlockWrites++
	e.Stats.SlotsStored += uint64(len(slots))
	return victim
}

// InvalidateAll wipes the whole cache (register redistribution makes all
// stored renaming information obsolete, §3.5).
func (e *EC) InvalidateAll() {
	for _, set := range e.sets {
		for i := range set {
			// Keep the slot storage for the rebuild that follows: register
			// redistribution wipes the cache many times per run, and
			// reallocating every block each time dominated the heap profile.
			set[i] = ecBlock{slots: set[i].slots[:0]}
		}
	}
	e.tags = e.tags[:0]
	e.Stats.Invalidations++
}

// Reset empties the cache and clears its statistics, leaving it as NewEC
// builds it but keeping every block's slot storage (and the spare
// builder): a reused core does not reallocate the blocks writeBlock
// filled in its earlier runs.
func (e *EC) Reset() {
	e.InvalidateAll()
	e.clock, e.nextTID, e.Stats = 0, 1, pipe.ECStats{}
}

// Reader streams the blocks of one trace out of the data array. The next
// block of a trace always lives in the following set with the same trace id
// and the next sequence number, so no tag lookup is needed per block.
type Reader struct {
	ec        *EC
	traceID   uint64
	set       int
	way       int
	seq       int
	successor uint64
}

// Successor returns the recorded follow-on address, valid after ReadBlock
// returned the last block.
func (r *Reader) Successor() uint64 { return r.successor }

// ReadBlock returns the next block's slots. last reports the end-of-trace
// marker; ok is false when the chain was broken by a newer trace
// overwriting a block.
func (r *Reader) ReadBlock() (slots []Slot, last, ok bool) {
	if r.ec == nil {
		return nil, false, false
	}
	set := (r.set + r.seq) % len(r.ec.sets)
	var blk *ecBlock
	for i := range r.ec.sets[set] {
		b := &r.ec.sets[set][i]
		if b.valid && b.traceID == r.traceID && b.seq == r.seq {
			blk = b
			break
		}
	}
	if blk == nil {
		r.ec.Stats.BrokenChains++
		return nil, false, false
	}
	r.ec.clock++
	blk.lru = r.ec.clock
	r.ec.Stats.BlockReads++
	r.ec.Stats.SlotsReplayed += uint64(len(blk.slots))
	if blk.last {
		r.successor = blk.successor
	}
	r.seq++
	return blk.slots, blk.last, true
}

// Builder assembles a trace during creation mode: issue units are appended
// in issue order, packed into blocks through the fill buffer, and written
// to consecutive sets. Finish registers the trace in the Tag Array.
type Builder struct {
	ec       *EC
	traceID  uint64
	startPC  uint64
	startSeq uint64
	set      int // set of block 0
	firstWay int
	seq      int
	pending  []Slot
	units    int
	full     bool
	// scratch builders go through all the motions (block accounting,
	// capacity sealing) but never write the data array or register a tag.
	// Sampled execution uses them right after a resume: a trace assembled
	// from a still-refilling pipeline has narrow issue units, and letting it
	// replace the warm-built trace at the same address would permanently
	// degrade every later replay of that path.
	scratch bool
}

// NewBuilder starts recording a trace for the program path beginning at
// startPC (dynamic sequence number startSeq).
func (e *EC) NewBuilder(startPC uint64, startSeq uint64) *Builder {
	tid := e.nextTID
	e.nextTID++
	b := e.spare
	e.spare = nil
	if b == nil {
		b = &Builder{pending: make([]Slot, 0, 2*e.cfg.BlockSlots)}
	}
	*b = Builder{
		ec: e, traceID: tid, startPC: startPC, startSeq: startSeq,
		set: e.startSet(startPC), firstWay: -1, pending: b.pending[:0],
	}
	return b
}

// StartSeq returns the dynamic sequence number of the trace's first
// (program-order) instruction.
func (b *Builder) StartSeq() uint64 { return b.startSeq }

// Units returns the number of issue units recorded so far.
func (b *Builder) Units() int { return b.units }

// Full reports whether the trace reached its maximum length; the caller
// should Finish it and start a new one.
func (b *Builder) Full() bool { return b.full }

// AddUnit appends one issue unit (the instructions selected in one cycle).
// Full is advisory: the core stalls dispatch once the soft capacity is
// reached, but instructions already in flight keep draining into the trace
// so it always ends at a clean program-order boundary.
func (b *Builder) AddUnit(slots []Slot) {
	if len(slots) == 0 {
		return
	}
	slots[0].UnitStart = true
	for i := 1; i < len(slots); i++ {
		slots[i].UnitStart = false
	}
	b.pending = append(b.pending, slots...)
	b.units++
	for len(b.pending) >= b.ec.cfg.BlockSlots {
		b.flushBlock(b.pending[:b.ec.cfg.BlockSlots], false, 0)
		// Copy the remainder down instead of re-slicing forward: the buffer
		// stays small, so its backing array survives the builder's whole
		// life and the next builder reuses it allocation-free.
		n := copy(b.pending, b.pending[b.ec.cfg.BlockSlots:])
		b.pending = b.pending[:n]
		if b.seq >= b.ec.cfg.MaxTraceBlocks-1 {
			b.full = true
		}
	}
}

// Scratch marks the builder as write-suppressed (see the field comment).
func (b *Builder) Scratch() { b.scratch = true }

func (b *Builder) flushBlock(slots []Slot, last bool, successor uint64) {
	if b.scratch {
		b.seq++
		return
	}
	set := (b.set + b.seq) % len(b.ec.sets)
	way := b.ec.writeBlock(set, b.traceID, b.seq, slots, last, successor)
	if b.seq == 0 {
		b.firstWay = way
	}
	b.seq++
}

// Finish seals the trace (writing any partial block with the end-of-trace
// marker and the recorded successor address — the next-trace prediction)
// and registers it in the Tag Array. Traces that never recorded an
// instruction are discarded. It reports whether a trace was registered.
func (b *Builder) Finish(successor uint64) bool {
	if len(b.pending) > 0 {
		b.flushBlock(b.pending, true, successor)
		b.pending = b.pending[:0]
	} else if b.seq > 0 {
		// Mark the final written block as last.
		set := (b.set + b.seq - 1) % len(b.ec.sets)
		for i := range b.ec.sets[set] {
			blk := &b.ec.sets[set][i]
			if blk.valid && blk.traceID == b.traceID && blk.seq == b.seq-1 {
				blk.last = true
				blk.successor = successor
				break
			}
		}
	}
	// Recycle the builder: every call site drops its pointer right after
	// Finish, so the next NewBuilder can take it over. Builders abandoned
	// without Finish are simply collected.
	b.ec.spare = b
	if b.seq == 0 || b.firstWay < 0 {
		return false
	}
	b.ec.registerTag(b.startPC, b.traceID, b.set, b.firstWay)
	b.ec.Stats.TracesBuilt++
	return true
}
