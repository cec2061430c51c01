// Package ringq provides a generic FIFO queue on a power-of-two ring
// buffer. The simulator's cycle loop uses it for small bounded queues
// (write buffers, pending unpins, directory backlogs) that were
// previously plain slices popped with s = s[1:]: that idiom leaks the
// popped prefix until the next append reallocates, and the reallocation
// itself is steady-state garbage. A ring reuses its storage forever, so
// a queue whose occupancy is bounded allocates only while growing to its
// high-water mark.
package ringq

// Q is a FIFO queue. The zero value is an empty queue ready for use.
type Q[T any] struct {
	buf  []T // len(buf) is always zero or a power of two
	head int // index of the front element
	n    int // number of queued elements
}

// Len returns the number of queued elements.
func (q *Q[T]) Len() int { return q.n }

// Push appends v at the back of the queue.
func (q *Q[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the front element; it panics on an empty queue.
func (q *Q[T]) Pop() T {
	if q.n == 0 {
		panic("ringq: Pop on empty queue")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for the garbage collector
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Front returns the front element without removing it; it panics on an
// empty queue.
func (q *Q[T]) Front() T {
	if q.n == 0 {
		panic("ringq: Front on empty queue")
	}
	return q.buf[q.head]
}

// At returns the i-th element from the front (At(0) == Front()); it
// panics when i is out of range.
func (q *Q[T]) At(i int) T { return *q.Ref(i) }

// Ref returns a pointer to the i-th element from the front, good until the
// queue next changes; it panics when i is out of range.
func (q *Q[T]) Ref(i int) *T {
	if i < 0 || i >= q.n {
		panic("ringq: index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// RemoveAt removes the i-th element from the front, preserving the order
// of the remaining elements; it panics when i is out of range. The
// relaxed-consistency write buffer uses it to merge stores out of FIFO
// order. Cost is O(i): elements in front of i shift back one slot.
func (q *Q[T]) RemoveAt(i int) {
	if i < 0 || i >= q.n {
		panic("ringq: RemoveAt index out of range")
	}
	mask := len(q.buf) - 1
	for ; i > 0; i-- {
		q.buf[(q.head+i)&mask] = q.buf[(q.head+i-1)&mask]
	}
	var zero T
	q.buf[q.head] = zero // drop the reference for the garbage collector
	q.head = (q.head + 1) & mask
	q.n--
}

// grow doubles the ring's capacity (minimum 8), unrolling the wrapped
// contents into the front of the new buffer.
func (q *Q[T]) grow() {
	next := len(q.buf) * 2
	if next == 0 {
		next = 8
	}
	buf := make([]T, next)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}
