// Package queue provides the head-indexed queue that holds waiting
// requests on the serving path: the engine's admission queue and the
// fleet's ingress and retry queue. Ordering policy stays with the caller.
package queue

// Queue is a slice consumed from its head: popping the front is O(1)
// and keeps the backing array for reuse, and the dead prefix is
// compacted away once it is at least 64 slots and half the buffer, so
// the buffer tracks the live region, not the stream. Every slot the
// queue vacates is zeroed, so it pins no request's token history. The
// zero Queue is empty and grows from nil.
type Queue[T any] struct {
	buf   []T
	head  int
	floor int
}

// New returns an empty queue whose first Push allocates room for floor
// elements, so a short backlog skips the early append-growth doublings.
func New[T any](floor int) Queue[T] { return Queue[T]{floor: floor} }

// Len reports how many elements are queued.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Live returns the queued elements, front first. The slice aliases the
// queue until its next Push, Insert, PopFront, RemoveAt or Filter;
// callers may reorder elements through it in place.
func (q *Queue[T]) Live() []T { return q.buf[q.head:] }

// Push appends v at the back.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (q *Queue[T]) Push(v T) {
	if q.buf == nil && q.floor > 0 {
		q.buf = make([]T, 0, q.floor) //edgereasoning:allow hotpath -- one-time floor, paid once per queue
	}
	q.buf = append(q.buf, v)
}

// PopFront removes the front element.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (q *Queue[T]) PopFront() {
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head >= 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.head = 0
		q.truncate(n)
	}
}

// Insert places v at position i of the live region (0 is the front),
// shifting the elements from i on back by one.
func (q *Queue[T]) Insert(i int, v T) {
	q.Push(v)
	live := q.buf[q.head:]
	copy(live[i+1:], live[i:len(live)-1])
	live[i] = v
}

// RemoveAt removes the element at position i of the live region,
// keeping the order of the rest. Removing the front is PopFront.
//
//edgereasoning:hotpath bench=BenchmarkAutoscaleServe
func (q *Queue[T]) RemoveAt(i int) {
	if i == 0 {
		q.PopFront()
		return
	}
	live := q.buf[q.head:]
	copy(live[i:], live[i+1:])
	q.truncate(len(q.buf) - 1)
}

// Filter removes every element keep rejects, in order, handing each to
// drop as it goes, and keeps the order of the rest. An element moves
// only once something ahead of it has been dropped.
func (q *Queue[T]) Filter(keep func(*T) bool, drop func(*T)) {
	live := q.buf[q.head:]
	n := 0
	for i := range live {
		if !keep(&live[i]) {
			drop(&live[i])
			continue
		}
		if n != i {
			live[n] = live[i]
		}
		n++
	}
	if n == 0 {
		q.head = 0 // nothing is left, so the dead prefix goes too
	}
	q.truncate(q.head + n)
}

// truncate shortens the buffer to n elements, zeroing what it vacates.
func (q *Queue[T]) truncate(n int) {
	clear(q.buf[n:])
	q.buf = q.buf[:n]
}
