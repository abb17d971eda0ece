// Package ring provides the circular FIFO used on the per-packet hot
// paths (link deliveries, switch lookup/egress queues, MAC TX queues,
// capture merge buffers): a power-of-two ring buffer that grows only when
// it is full and never walks. Push writes at head+len, Pop advances head
// modulo the capacity, and a queue that drains rewinds head to slot 0, so
// a queue that oscillates between empty and a few entries keeps touching
// the same cache lines instead of sweeping its whole backing array.
// Steady-state queueing costs O(1) per element with no allocation and no
// copying, which is what keeps the gen→port→link→mon path at 0.0
// allocs/packet; the capacity stays below twice the peak occupancy.
package ring

// minCap is the capacity of a FIFO's first backing array.
const minCap = 4

// FIFO is a circular queue of T. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int // queued elements
}

// Len returns the number of queued elements.
func (r *FIFO[T]) Len() int { return r.n }

// Push appends v to the tail.
func (r *FIFO[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow(r.n + 1)
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Peek returns a pointer to the head element without removing it. It
// must not be called on an empty FIFO, and the pointer is invalidated by
// the next Push or Pop.
func (r *FIFO[T]) Peek() *T { return &r.buf[r.head] }

// Pop removes and returns the head element, zeroing its slot so the
// backing array never retains stale references. It must not be called
// on an empty FIFO.
func (r *FIFO[T]) Pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.n--
	if r.n == 0 {
		r.head = 0
	} else {
		r.head = (r.head + 1) & (len(r.buf) - 1)
	}
	return v
}

// PushN appends every element of vs to the tail in one grow-check: the
// bulk-enqueue path batch producers (frame trains) use instead of N
// single Pushes.
func (r *FIFO[T]) PushN(vs []T) {
	if r.n+len(vs) > len(r.buf) {
		r.grow(r.n + len(vs))
	}
	tail := (r.head + r.n) & (len(r.buf) - 1)
	c := copy(r.buf[tail:], vs)
	copy(r.buf, vs[c:])
	r.n += len(vs)
}

// PopN removes the first n elements, copying them into dst (which must
// have room for n) and zeroing their slots. It must not be called with n
// exceeding Len.
func (r *FIFO[T]) PopN(dst []T, n int) {
	if n == 0 {
		return
	}
	first := min(n, len(r.buf)-r.head)
	copy(dst, r.buf[r.head:r.head+first])
	copy(dst[first:n], r.buf[:n-first])
	clear(r.buf[r.head : r.head+first])
	clear(r.buf[:n-first])
	r.n -= n
	if r.n == 0 {
		r.head = 0
	} else {
		r.head = (r.head + n) & (len(r.buf) - 1)
	}
}

// grow moves the queue into a backing array of the smallest power-of-two
// capacity (at least minCap) holding need elements, unwrapped to start
// at slot 0.
func (r *FIFO[T]) grow(need int) {
	c := max(len(r.buf), minCap)
	for c < need {
		c *= 2
	}
	buf := make([]T, c)
	if r.n > 0 {
		first := min(r.n, len(r.buf)-r.head)
		copy(buf, r.buf[r.head:r.head+first])
		copy(buf[first:], r.buf[:r.n-first])
	}
	r.buf, r.head = buf, 0
}
