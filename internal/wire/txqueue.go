package wire

import (
	"osnt/internal/ring"
	"osnt/internal/sim"
)

// TxQueue is the transmit side of a MAC: a bounded FIFO of runs that
// drains onto the attached Link one run at a time. It alone decides when
// the MAC is free and when its completion event is queued; the owning
// device does its per-frame work (counters, hop stamps, TX timestamps)
// between Next and Send, in one sequence that is also the completion
// event's callback:
//
//	if t, start, ok := q.Next(); ok {
//		// per-frame work at instants from start on
//		q.Send(t, start)
//	}
//
// Every transmission reserves its completion's key (sim.Engine.Reserve);
// the completion event is queued under it only while runs wait, since
// otherwise it would merely mark the MAC free. Next queues it when a run
// arrives before the key has passed, so every observable instant and
// event order is the one an always-queued completion would give.
type TxQueue struct {
	engine *sim.Engine
	link   *Link
	cap    int // frames

	fifo   ring.FIFO[txEntry]
	frames int        // frames queued: a run entry carries many
	done   *sim.Event // the completion event; at most one run in flight

	// busy marks a transmission in flight whose completion key is
	// (doneAt, doneSeq); armed marks done queued under that key.
	busy    bool
	armed   bool
	doneAt  sim.Time
	doneSeq uint64
}

// txEntry is one queued run of n frames, sent from earliest on.
type txEntry struct {
	run      *Train
	n        int
	earliest sim.Time
}

// Init readies the queue on engine e with a cap of capFrames queued
// frames. send is the completion callback, run when a transmission ends
// with runs still queued: the device's Next/Send sequence.
func (q *TxQueue) Init(e *sim.Engine, capFrames int, send func()) {
	q.engine, q.cap, q.done = e, capFrames, sim.NewEvent(send)
}

// SetLink attaches the link the MAC transmits into.
func (q *TxQueue) SetLink(l *Link) { q.link = l }

// Link returns the attached link (nil when unconnected).
func (q *TxQueue) Link() *Link { return q.link }

// Len returns the number of frames queued.
func (q *TxQueue) Len() int { return q.frames }

// Push queues the n-frame run t for transmission no earlier than
// earliest. It refuses the run, reporting why, when the MAC has no link
// (DropUnconnected) or the queue already holds its cap of frames (the
// caller's full reason); a refused run stays the caller's.
func (q *TxQueue) Push(t *Train, n int, earliest sim.Time, full DropReason) (DropReason, bool) {
	if q.link == nil {
		return DropUnconnected, false
	}
	if q.frames >= q.cap {
		return full, false
	}
	q.fifo.Push(txEntry{run: t, n: n, earliest: earliest})
	q.frames += n
	return 0, true
}

// Next pops the head run when the MAC is free, returning it with the
// instant its first bit starts: its own earliest, or the moment the link
// frees if later. ok is false when the queue is empty or a transmission
// still holds the MAC; its completion is then queued, so it sends the
// head when it fires.
//
//lint:hotpath
func (q *TxQueue) Next() (t *Train, start sim.Time, ok bool) {
	if q.fifo.Len() == 0 {
		return nil, 0, false
	}
	if q.busy {
		if !q.engine.Reached(q.doneAt, q.doneSeq) {
			if !q.armed {
				q.engine.RescheduleReserved(q.done, q.doneAt, q.doneSeq)
				q.armed = true
			}
			return nil, 0, false
		}
		q.busy = false
	}
	x := q.fifo.Pop()
	q.frames -= x.n
	return x.run, max(x.earliest, q.link.BusyUntil()), true
}

// Send transmits the run Next returned from start on and reserves its
// completion key, queuing the completion when runs remain.
//
//lint:hotpath
func (q *TxQueue) Send(t *Train, start sim.Time) {
	e := q.engine
	at := max(q.link.Transmit(t, start), e.Now())
	q.busy, q.doneAt, q.doneSeq = true, at, e.Reserve(at)
	if q.armed = q.fifo.Len() > 0; q.armed {
		e.RescheduleReserved(q.done, at, q.doneSeq)
	}
}

// Idle reports exactly whether the MAC is free and the queue empty: a
// run pushed now would start at once.
func (q *TxQueue) Idle() bool {
	return q.fifo.Len() == 0 && (!q.busy || q.engine.Reached(q.doneAt, q.doneSeq))
}
