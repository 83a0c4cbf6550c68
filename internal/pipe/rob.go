package pipe

// ROB is the reorder (retire) buffer: a bounded FIFO of in-flight
// instructions in program order. Retirement pops from the head once an
// instruction is done.
type ROB struct {
	buf   []*DynInst
	head  int
	count int
}

// NewROB builds a reorder buffer with the given capacity.
func NewROB(capacity int) *ROB {
	return &ROB{buf: make([]*DynInst, capacity)}
}

// Cap returns the capacity.
func (r *ROB) Cap() int { return len(r.buf) }

// Len returns the occupancy.
func (r *ROB) Len() int { return r.count }

// Full reports whether no entries are free.
func (r *ROB) Full() bool { return r.count == len(r.buf) }

// Push appends an instruction in program order; it reports false when full.
func (r *ROB) Push(d *DynInst) bool {
	if r.Full() {
		return false
	}
	r.buf[(r.head+r.count)%len(r.buf)] = d
	r.count++
	return true
}

// Head returns the oldest in-flight instruction, or nil when empty.
func (r *ROB) Head() *DynInst {
	if r.count == 0 {
		return nil
	}
	return r.buf[r.head]
}

// PopHead removes and returns the oldest instruction; nil when empty.
func (r *ROB) PopHead() *DynInst {
	if r.count == 0 {
		return nil
	}
	d := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return d
}

// Flush discards everything. The timing cores never hold wrong-path
// instructions; they flush only to reset a reused core.
func (r *ROB) Flush() {
	for i := range r.buf {
		r.buf[i] = nil
	}
	r.head, r.count = 0, 0
}
