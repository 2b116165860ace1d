package sim

// Queue is the FIFO used for every buffer in the machine (processor
// FIFOs, memory input queues, ring interface queues). It counts what the
// monitoring subsystem reads back: items enqueued and the deepest the
// queue has been (the paper's FIFO-depth measurement), both exact because
// they change only on a push.
//
// The zero value is an empty, unbounded queue. Components hold their
// queues by value and hand out pointers to them; a copy would silently
// fork the FIFO, so Queue carries a noCopy marker and go vet rejects one.
type Queue[T any] struct {
	_ noCopy

	items []T
	head  int

	// Capacity <= 0 means unbounded.
	Capacity int

	totalEnq int64
	maxDepth int
}

// noCopy is the marker go vet's copylocks check looks for: a type with
// Lock and Unlock methods must not be copied after first use.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool { return q.Capacity > 0 && q.Len() >= q.Capacity }

// Empty reports whether the queue holds no items.
func (q *Queue[T]) Empty() bool { return q.Len() == 0 }

// Push enqueues v. It returns false (and drops nothing) when the queue is
// full; callers must check.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	q.items = append(q.items, v)
	if d := q.Len(); d > q.maxDepth {
		q.maxDepth = d
	}
	q.totalEnq++
	return true
}

// Peek returns the head item without removing it. ok is false when empty.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.Empty() {
		return v, false
	}
	return q.items[q.head], true
}

// Pop removes and returns the head item. ok is false when empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.Empty() {
		return v, false
	}
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero // release reference
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v, true
}

// Each calls fn for every queued item in FIFO order (head first). It is a
// read-only iteration used by the model checker's snapshot hooks; fn must
// not push or pop.
func (q *Queue[T]) Each(fn func(v T)) {
	for _, v := range q.items[q.head:] {
		fn(v)
	}
}

// QueueStats summarizes a queue's activity.
type QueueStats struct {
	Enqueued int64
	MaxDepth int
}

// Stats returns a snapshot of the accumulated statistics.
func (q *Queue[T]) Stats() QueueStats {
	return QueueStats{Enqueued: q.totalEnq, MaxDepth: q.maxDepth}
}
