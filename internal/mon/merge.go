package mon

import (
	"osnt/internal/ring"
	"osnt/internal/timing"
)

// Merge reconstructs the global capture order of a multi-queue monitor.
//
// The multi-queue DMA engine trades order for throughput: each queue's
// host core delivers records in queue-local FIFO order, and records of
// different queues interleave however their drain events happen to fire
// — which is exactly the cross-queue ordering gap real RSS capture
// stacks have. Any stateful consumer (flow tables, sequence trackers,
// ordered PCAP output) needs the streams put back together by hardware
// timestamp, and it needs the merge to be deterministic when two queues
// hold the same timestamp.
//
// Merge is that k-way merge, streaming and allocation-free at steady
// state. It takes over every queue's sink, buffers each queue's
// deliveries in a circular FIFO (ring.FIFO), and emits records in ascending
// (TS, Queue, Seq) key order — timestamp first, then queue index, then
// per-queue admission sequence, so equal hardware timestamps across
// queues break ties identically at any queue count and on any engine
// schedule. Emission is eager: a buffered record is released as soon as
// no other queue can still produce a smaller key, which the monitor's
// timestamp watermark (timestamps are latched in arrival order) and the
// per-queue ring occupancy decide exactly:
//
//   - every queue with a non-empty buffer will only ever append larger
//     keys (per-queue keys are strictly increasing), and
//   - a queue with an empty buffer can only produce a smaller key if
//     its descriptor ring still holds undelivered records, or if the
//     candidate's timestamp has not fallen below the watermark (a
//     future arrival could still tie it and steer to a lower queue).
//
// Records held back by the watermark at the end of a run are released
// by Flush, which callers invoke once the engine has drained.
//
// Record data lifetime: the per-queue rings recycle their buffers as
// soon as the queue sink returns, so Merge copies each record's bytes
// into its own free-list-recycled buffers and recycles them again after
// the merged sink returns. The sink must therefore copy anything it
// keeps past the callback — the same contract as Config.RecycleRecords.
type Merge struct {
	m    *Monitor
	sink func(Record)

	bufs []ring.FIFO[Record]
	free [][]byte

	emitted uint64

	// Order self-check: the last emitted key, and how many emissions
	// compared below it. Always zero unless the merge is misused (e.g.
	// Flush while traffic is still flowing).
	lastTS    timing.Timestamp
	lastQ     int
	lastSeq   uint64
	any       bool
	violation uint64
}

// NewMerge attaches a merging stage to the monitor: every capture
// queue's records are re-interleaved into ascending (TS, Queue, Seq)
// order and delivered to sink. It takes over all queue sinks (replacing
// Config.Sink and any QueueConfig.Sink) and forces per-queue buffer
// recycling, since the merge owns its own copies. Attach it before
// traffic runs; call Flush after the engine drains to release the
// records the watermark held back.
func NewMerge(m *Monitor, sink func(Record)) *Merge {
	if sink == nil {
		panic("mon: NewMerge needs a sink")
	}
	g := &Merge{m: m, sink: sink, bufs: make([]ring.FIFO[Record], len(m.queues))}
	for i := range m.queues {
		q := &m.queues[i]
		q.sink = g.push
		q.recycle = true
	}
	return g
}

// Emitted returns how many records have been delivered to the merged
// sink.
func (g *Merge) Emitted() uint64 { return g.emitted }

// Pending returns how many delivered records are buffered inside the
// merge, waiting for the watermark (Flush releases them).
func (g *Merge) Pending() int {
	n := 0
	for i := range g.bufs {
		n += g.bufs[i].Len()
	}
	return n
}

// OrderViolations counts emissions whose key compared below their
// predecessor's. It is zero by construction unless the merge is misused
// (Flush mid-traffic); experiments assert it to keep the watermark
// logic honest.
func (g *Merge) OrderViolations() uint64 { return g.violation }

// keyLess orders records by (TS, Queue, Seq).
func keyLess(a, b *Record) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	if a.Queue != b.Queue {
		return a.Queue < b.Queue
	}
	return a.Seq < b.Seq
}

// push is the per-queue sink: copy the record's bytes (the queue ring
// recycles the original as soon as we return) and advance the merge.
func (g *Merge) push(rec Record) {
	b := g.getBuf(len(rec.Data))
	copy(b, rec.Data)
	rec.Data = b
	g.bufs[rec.Queue].Push(rec)
	g.advance(false)
}

// Flush emits everything still buffered, in key order. Call it once the
// engine has drained: the final records of a run sit at the watermark
// (no later arrival exists to push it past them), so only the caller
// knows they are safe to release.
func (g *Merge) Flush() { g.advance(true) }

// advance emits buffered records for as long as the head of some queue
// buffer is provably the global minimum (always, when final).
func (g *Merge) advance(final bool) {
	for {
		min := -1
		for i := range g.bufs {
			if g.bufs[i].Len() == 0 {
				continue
			}
			if min < 0 || keyLess(g.bufs[i].Peek(), g.bufs[min].Peek()) {
				min = i
			}
		}
		if min < 0 {
			return
		}
		if !final {
			head := g.bufs[min].Peek()
			hold := false
			for i := range g.bufs {
				if i == min || g.bufs[i].Len() > 0 {
					continue
				}
				// Queue i has delivered everything it buffered. It can
				// still produce a key below head's if undelivered
				// records sit in its descriptor ring, or if head's
				// timestamp is not yet strictly below the watermark (a
				// future arrival with an equal timestamp could steer
				// to it and, on a lower queue index, sort first).
				if g.m.queues[i].pending() > 0 || head.TS >= g.m.maxTS {
					hold = true
					break
				}
			}
			if hold {
				return
			}
		}
		g.emit(g.bufs[min].Pop())
	}
}

// emit delivers one record and recycles its buffer.
func (g *Merge) emit(rec Record) {
	if g.any {
		last := Record{TS: g.lastTS, Queue: g.lastQ, Seq: g.lastSeq}
		if keyLess(&rec, &last) {
			g.violation++
		}
	}
	g.any, g.lastTS, g.lastQ, g.lastSeq = true, rec.TS, rec.Queue, rec.Seq
	g.emitted++
	g.sink(rec)
	g.free = append(g.free, rec.Data[:0])
}

// getBuf returns a buffer of length n from the merge's free list.
func (g *Merge) getBuf(n int) []byte {
	if k := len(g.free); k > 0 {
		b := g.free[k-1]
		g.free[k-1] = nil
		g.free = g.free[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// pending returns the queue's undelivered ring occupancy.
func (q *queue) pending() int { return q.ring.Len() }
