package wire

import "sync"

// Pool recycles Frame structs and their backing buffers across the
// per-packet hot path. A generator at 10 Gb/s line rate creates 14.88 M
// frames per simulated second; without recycling every one of them is a
// fresh Frame plus a fresh Data slice for the garbage collector to chase.
// With a Pool the frame travels generator → TX queue → link → RX MAC and
// is released back for the next packet, so the steady-state path
// allocates nothing.
//
// Ownership rule: a frame is owned by exactly one component at a time —
// whoever holds it last calls Release. Terminal endpoints (netfpga.Port
// RX, experiment sinks) release after their callbacks return; callbacks
// that need the bytes longer must copy them (mon already does). Frames
// that fall off the fast path (queue-overflow drops, runt frames) may
// simply be dropped: an unreleased pooled frame is collected by the GC
// like any other allocation, so forgetting Release costs speed, never
// correctness.
//
// The free lists are plain LIFO stacks, not a sync.Pool: a garbage
// collection does not empty them, so a scenario that holds tens of
// thousands of frames in its queues stops allocating once it has
// warmed up, however often the collector runs. The price is retention:
// a Pool keeps every frame released to it, and it never holds more
// frames than were outstanding at once (a frame is allocated only when
// the free list is empty), each with the largest Data buffer it was
// asked for. That high-water mark stays live until the Pool itself is
// dropped.
//
// A Pool is safe for concurrent use; the parallel experiment runner's
// workers and a shard cluster's engines share one. One mutex guards both
// free lists and the counters.
type Pool struct {
	mu     sync.Mutex
	frames *Frame   // free frames, linked through Frame.next
	trains []*Train // free Train containers (their Frames recycle via frames)

	gets, puts, fresh uint64
}

// NewPool returns an empty frame pool.
func NewPool() *Pool {
	return &Pool{}
}

// DefaultPool is the process-wide frame pool: the measurement drivers
// (core) and the experiment sweeps share it, so frames cooled by one
// driver family warm the next regardless of which worker goroutine runs
// the sweep point. Components that want isolation build their own with
// NewPool.
var DefaultPool = NewPool()

// Get returns a frame with Data sized to n bytes (contents undefined) and
// the FCS-inclusive Size set accordingly. The frame remembers its pool,
// so Release on it (from any package) returns it here.
func (p *Pool) Get(n int) *Frame {
	p.mu.Lock()
	p.gets++
	f := p.frames
	if f != nil {
		p.frames, f.next = f.next, nil
	} else {
		p.fresh++
	}
	p.mu.Unlock()
	if f == nil {
		f = &Frame{}
	}
	if cap(f.Data) < n {
		f.Data = make([]byte, n)
	} else {
		f.Data = f.Data[:n]
	}
	f.Size = n + FCSLen
	f.SrcPort = 0
	f.Trace.Reset()
	f.pool = p
	return f
}

// put returns a frame to the pool. Callers go through Frame.Release,
// which clears the pool pointer first so a double release degrades to a
// no-op instead of linking the frame into the free list twice.
func (p *Pool) put(f *Frame) {
	p.mu.Lock()
	p.puts++
	f.next = p.frames
	p.frames = f
	p.mu.Unlock()
}

// GetTrain returns an empty Train container whose Frames slice (backing
// array included) recycles across batches, so steady-state coalescing
// allocates nothing per train.
func (p *Pool) GetTrain() *Train {
	var t *Train
	p.mu.Lock()
	if n := len(p.trains); n > 0 {
		t = p.trains[n-1]
		p.trains[n-1] = nil
		p.trains = p.trains[:n-1]
	}
	p.mu.Unlock()
	if t == nil {
		t = &Train{}
	}
	t.Frames = t.Frames[:0]
	t.Rate = 0
	t.Uniform = false
	t.pool = p
	return t
}

// putTrain returns a train container to the pool. Callers go through
// Train.Recycle, which clears the pool pointer first so a double recycle
// degrades to a no-op.
func (p *Pool) putTrain(t *Train) {
	p.mu.Lock()
	p.trains = append(p.trains, t)
	p.mu.Unlock()
}

// Stats reports cumulative gets, releases, and fresh allocations. In a
// warmed-up steady state fresh stops growing — the property the
// allocation-regression tests pin down.
func (p *Pool) Stats() (gets, puts, fresh uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.puts, p.fresh
}
