package ring

import "testing"

func TestFIFOOrder(t *testing.T) {
	var r FIFO[int]
	if r.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	for i := 0; i < 1000; i++ {
		r.Push(i)
	}
	if r.Len() != 1000 {
		t.Fatalf("Len = %d", r.Len())
	}
	if *r.Peek() != 0 {
		t.Fatalf("Peek = %d", *r.Peek())
	}
	for i := 0; i < 1000; i++ {
		if got := r.Pop(); got != i {
			t.Fatalf("Pop %d = %d", i, got)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after drain = %d", r.Len())
	}
}

func TestFIFOInterleaved(t *testing.T) {
	var r FIFO[int]
	next, want := 0, 0
	// Interleave pushes and pops with a persistent backlog so the head
	// wraps around the backing array and the queue grows while wrapped.
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := r.Pop(); got != want {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
			}
			want++
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("drain: Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d values, pushed %d", want, next)
	}
}

// Steady-state queueing must not allocate: the backing array is recycled
// once warm, whatever the head position.
func TestFIFOSteadyStateZeroAlloc(t *testing.T) {
	var r FIFO[int]
	for i := 0; i < 256; i++ {
		r.Push(i)
	}
	for r.Len() > 0 {
		r.Pop()
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			r.Push(i)
		}
		for r.Len() > 0 {
			r.Pop()
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f per cycle, want 0", avg)
	}
}

// Bulk and single operations must interleave freely and preserve FIFO
// order: PushN/PopN are batched bookkeeping, not a separate queue.
func TestFIFOBulkOrder(t *testing.T) {
	var r FIFO[int]
	next, want := 0, 0
	batch := make([]int, 64)
	pop := func(n int) {
		got := make([]int, n)
		r.PopN(got, n)
		for _, v := range got {
			if v != want {
				t.Fatalf("PopN = %d, want %d", v, want)
			}
			want++
		}
	}
	for round := 0; round < 100; round++ {
		n := 1 + round%len(batch)
		for i := 0; i < n; i++ {
			batch[i] = next
			next++
		}
		r.PushN(batch[:n])
		r.Push(next)
		next++
		if got := r.Pop(); got != want {
			t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
		}
		want++
		pop(n / 2)
	}
	pop(r.Len())
	if want != next {
		t.Fatalf("popped %d values, pushed %d", want, next)
	}
}

// PopN must zero vacated slots like N single Pops, order must survive
// wraparound and growth, and under steady push/pop the backing array
// must stay compact: never more than twice the peak occupancy.
func TestFIFOBulkClearsAndCompacts(t *testing.T) {
	var r FIFO[*int]
	v := 7
	vs := []*int{&v, &v, &v, &v}
	r.PushN(vs)
	dst := make([]*int, 3)
	r.PopN(dst, 3)
	for i := 0; i < 3; i++ {
		if r.buf[i] != nil {
			t.Fatalf("bulk-popped slot %d still holds the pointer", i)
		}
	}
	if r.Len() != 1 || r.Pop() != &v {
		t.Fatal("tail element lost after PopN")
	}

	// Wraparound: a backlog that keeps its head moving forces pushes and
	// bulk pops to split across the end of the backing array; growth
	// happens while the queue is wrapped.
	var q FIFO[int]
	next, want, peak := 0, 0, 0
	out := make([]int, 64)
	for round := 0; round < 2000; round++ {
		push := 1 + round%7
		if round < 300 {
			push += 2 // ramp the backlog up, then hold it steady
		}
		batch := make([]int, push)
		for i := range batch {
			batch[i] = next
			next++
		}
		if round%2 == 0 {
			q.PushN(batch)
		} else {
			for _, x := range batch {
				q.Push(x)
			}
		}
		peak = max(peak, q.Len())
		pop := min(q.Len(), 1+(round*5)%9)
		q.PopN(out, pop)
		for _, got := range out[:pop] {
			if got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
		if c := len(q.buf); c > 2*peak && c > minCap {
			t.Fatalf("round %d: capacity %d exceeds twice the peak occupancy %d", round, c, peak)
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d values, pushed %d", want, next)
	}

	// Popped slots are zeroed on both sides of a wrap.
	var w FIFO[*int]
	for i := 0; i < 3; i++ {
		w.Push(&v)
	}
	w.PopN(dst, 2) // head now at slot 2 of 4
	w.PushN(vs[:3])
	w.PopN(make([]*int, 4), 4)
	for i, p := range w.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a pointer after a wrapped PopN", i)
		}
	}
}

// PopN with n = 0 must be a no-op even on an empty FIFO.
func TestFIFOBulkPopZero(t *testing.T) {
	var r FIFO[int]
	r.PopN(nil, 0)
	if r.Len() != 0 {
		t.Fatalf("Len = %d after PopN(nil, 0)", r.Len())
	}
}

// BenchmarkFIFOBulk pits PushN/PopN of 64-element trains against the
// same traffic moved one element at a time: the bulk path amortises the
// grow-check and the index arithmetic across the batch.
func BenchmarkFIFOBulk(b *testing.B) {
	batch := make([]int, 64)
	for i := range batch {
		batch[i] = i
	}
	dst := make([]int, 64)
	b.Run("singles", func(b *testing.B) {
		var r FIFO[int]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, v := range batch {
				r.Push(v)
			}
			for j := 0; j < len(batch); j++ {
				dst[j] = r.Pop()
			}
		}
	})
	b.Run("bulk", func(b *testing.B) {
		var r FIFO[int]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.PushN(batch)
			r.PopN(dst, len(batch))
		}
	})
}

// Pop must zero vacated slots so popped pointers are not retained by the
// backing array.
func TestFIFOClearsSlots(t *testing.T) {
	var r FIFO[*int]
	v := 7
	r.Push(&v)
	r.Push(&v)
	r.Pop()
	if got := r.buf[0]; got != nil {
		t.Fatal("popped slot still holds the pointer")
	}
}
