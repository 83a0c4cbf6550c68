package clock

// Queue is a bounded FIFO whose entries carry a visibility timestamp. It
// models the synchronizing FIFOs between clock domains: a producer pushes an
// item with readyAt = now + synchronization delay, and the consumer only
// sees it once its own clock has passed that time (cf. §3.2 and the
// mixed-clock issue queue design the paper builds on).
//
// Within one domain it degenerates to an ordinary pipeline latch queue by
// pushing with readyAt = now.
type Queue[T any] struct {
	items []item[T]
	cap   int
}

type item[T any] struct {
	v       T
	readyAt int64
}

// NewQueue returns a queue holding at most capacity items.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic("clock: queue capacity must be positive")
	}
	return &Queue[T]{cap: capacity}
}

// Len returns the number of queued items (visible or not).
func (q *Queue[T]) Len() int { return len(q.items) }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool { return len(q.items) >= q.cap }

// Free returns the remaining capacity.
func (q *Queue[T]) Free() int { return q.cap - len(q.items) }

// Push enqueues v, visible to consumers at readyAt. It reports false when
// the queue is full (producer must stall).
func (q *Queue[T]) Push(v T, readyAt int64) bool {
	if q.Full() {
		return false
	}
	q.items = append(q.items, item[T]{v, readyAt})
	return true
}

// Peek returns the head item if it is visible at time now.
func (q *Queue[T]) Peek(now int64) (T, bool) {
	if len(q.items) == 0 || q.items[0].readyAt > now {
		var zero T
		return zero, false
	}
	return q.items[0].v, true
}

// Pop removes and returns the head item if it is visible at time now.
func (q *Queue[T]) Pop(now int64) (T, bool) {
	v, ok := q.Peek(now)
	if ok {
		copy(q.items, q.items[1:])
		q.items = q.items[:len(q.items)-1]
	}
	return v, ok
}

// Flush discards all items (pipeline squash).
func (q *Queue[T]) Flush() { q.items = q.items[:0] }
