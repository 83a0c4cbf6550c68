package clock

// Queue is a bounded FIFO whose entries carry a visibility timestamp. It
// models the synchronizing FIFOs between clock domains: a producer pushes an
// item with readyAt = now + synchronization delay, and the consumer only
// sees it once its own clock has passed that time (cf. §3.2 and the
// mixed-clock issue queue design the paper builds on).
//
// Within one domain it degenerates to an ordinary pipeline latch queue by
// pushing with readyAt = now.
//
// The queue is a fixed-capacity ring: items[head] is the oldest entry and
// the n entries after it (modulo the capacity) follow in push order, so
// Push and Pop are O(1) and never move entries.
type Queue[T any] struct {
	items []item[T]
	head  int
	n     int
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
	return &Queue[T]{items: make([]item[T], capacity)}
}

// Len returns the number of queued items (visible or not).
func (q *Queue[T]) Len() int { return q.n }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool { return q.n == len(q.items) }

// Free returns the remaining capacity.
func (q *Queue[T]) Free() int { return len(q.items) - q.n }

// Push enqueues v, visible to consumers at readyAt. It reports false when
// the queue is full (producer must stall).
func (q *Queue[T]) Push(v T, readyAt int64) bool {
	if q.Full() {
		return false
	}
	tail := q.head + q.n
	if tail >= len(q.items) {
		tail -= len(q.items)
	}
	q.items[tail] = item[T]{v, readyAt}
	q.n++
	return true
}

// Peek returns the head item if it is visible at time now.
func (q *Queue[T]) Peek(now int64) (T, bool) {
	if q.n == 0 || q.items[q.head].readyAt > now {
		var zero T
		return zero, false
	}
	return q.items[q.head].v, true
}

// Pop removes and returns the head item if it is visible at time now.
func (q *Queue[T]) Pop(now int64) (T, bool) {
	v, ok := q.Peek(now)
	if ok {
		q.items[q.head] = item[T]{} // drop the reference
		q.head++
		if q.head == len(q.items) {
			q.head = 0
		}
		q.n--
	}
	return v, ok
}

// Flush discards all items (pipeline squash, or a reused core's reset).
func (q *Queue[T]) Flush() {
	clear(q.items)
	q.head, q.n = 0, 0
}
