package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Event is a scheduled callback. It is returned by the Schedule family so
// callers can cancel pending work (for example a retransmit timer).
type Event struct {
	at Time
	// prio orders events scheduled for the same instant: lower fires
	// first, and PrioDefault — what the plain Schedule family assigns —
	// sorts last, leaving those events in the familiar FIFO (seq) order.
	// Explicit priorities exist for events whose same-instant order must
	// be a structural property of the scenario rather than an accident of
	// scheduling history: wire link deliveries on delayed cables use the
	// link's topology-assigned key here, which is what lets the sharded
	// runtime (internal/shard) replay cross-shard arrivals byte-exactly.
	prio   uint64
	seq    uint64 // tie-break: FIFO among events at the same (at, prio)
	fn     func()
	queued bool
	cancel bool
}

// PrioDefault is the scheduling priority of the plain Schedule family:
// it sorts after every explicit priority, so same-instant events without
// one fire in FIFO order exactly as before priorities existed.
const PrioDefault = ^uint64(0)

// At returns the instant the event is scheduled for.
func (ev *Event) At() Time { return ev.at }

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op.
func (ev *Event) Cancel() { ev.cancel = true }

// Cancelled reports whether Cancel was called on the event.
func (ev *Event) Cancelled() bool { return ev.cancel }

// Pending reports whether the event is still in the queue waiting to
// fire (a cancelled event counts as pending until the queue discards
// it).
func (ev *Event) Pending() bool { return ev.queued }

// The event queue orders events by (at, prio, seq): time first, then
// explicit priority, then insertion sequence. Events scheduled without a
// priority carry PrioDefault, so among themselves they fire in FIFO
// order — deterministic ordering is essential: experiment results must
// not depend on map or queue tie-breaking accidents. Explicit priorities
// order same-instant events by a structural key of the scenario (a
// delayed link's topology ordinal) instead of scheduling history, which
// is what makes a partitioned run (internal/shard) reproduce a
// single-engine run to the byte.
//
// The queue is a monotone radix queue. Virtual time never runs
// backwards and nothing may be scheduled before Now, so every queued
// instant is at least base, the instant the queue last re-based to
// (never later than Now while anything is queued). Bucket b holds the
// events whose instant first differs from base in bit b-1
// (bits.Len64(at XOR base) == b): bucket 0 is the events at base itself,
// kept as a small binary heap on (prio, seq), and higher buckets are
// unordered slices. When bucket 0 runs dry the lowest non-empty bucket is
// scanned for its earliest instant, base moves there, and that bucket's
// entries fall into strictly lower buckets, so an event moves at most
// once per bit of its distance from the present. A push is an append and
// a pop usually takes bucket 0's only entry; the occasional re-base scans
// one bucket's contiguous entries, where a heap sift would chase
// pointers across a cache-cold array. Each entry carries its event's
// instant inline, so only bucket 0's tie-breaks dereference Events.
//
// Peek and the RunUntil horizon check never move base past the present:
// they read the lowest bucket's earliest instant (or only its lower
// bound) without re-basing, so an event scheduled at Now after RunUntil
// returns still has a valid bucket.
//
// Cancel is lazy: a cancelled event stays queued (and counts in Pending)
// until the queue meets it — at the head, or while scanning its bucket —
// and is then discarded without advancing the clock.

// entry is one queued event with its instant denormalised alongside the
// pointer. The instant is authoritative while queued: Reprogram takes
// the entry out and re-inserts it under the new key.
type entry struct {
	at Time
	ev *Event
}

// numBuckets covers every bit length of a non-negative Time difference.
const numBuckets = 64

// bucketSlab is the capacity NewEngine gives every bucket up front.
const bucketSlab = 8

// maxTime is the latest representable instant.
const maxTime = Time(math.MaxInt64)

// before0 orders bucket 0, whose entries all share one instant: lower
// explicit priority first, then FIFO by insertion sequence.
func before0(a, b *Event) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// push queues ev under its current key.
func (e *Engine) push(ev *Event) {
	if e.n == 0 {
		// An empty queue may be re-based freely; discarding cancelled
		// events can leave base ahead of the clock.
		e.base = e.now
	}
	e.n++
	ev.queued = true
	e.place(entry{at: ev.at, ev: ev})
}

// place files x into its bucket relative to the current base. Entries
// do not record their position in the Events: a re-base moves entries
// without touching the (cache-cold) Events they point to, and the rare
// removal of a queued event searches its bucket instead.
func (e *Engine) place(x entry) {
	b := bits.Len64(uint64(x.at ^ e.base))
	e.buckets[b] = append(e.buckets[b], x)
	if b == 0 {
		e.up0(len(e.buckets[0]) - 1)
		return
	}
	e.mask |= 1 << b
}

// up0 sifts bucket 0's entry at i towards the root and returns where it
// settled.
func (e *Engine) up0(i int) int {
	q := e.buckets[0]
	x := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !before0(x.ev, q[parent].ev) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
	return i
}

// down0 sinks bucket 0's entry at i until no child precedes it.
func (e *Engine) down0(i int) {
	q := e.buckets[0]
	n := len(q)
	x := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && before0(q[c+1].ev, q[c].ev) {
			c++
		}
		if !before0(q[c].ev, x.ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
}

// remove takes the queued event ev out of its bucket.
func (e *Engine) remove(ev *Event) {
	b := bits.Len64(uint64(ev.at ^ e.base))
	for i, x := range e.buckets[b] {
		if x.ev == ev {
			e.removeAt(b, i)
			return
		}
	}
	panic("sim: queued event missing from its bucket")
}

// removeAt takes the entry at position i out of bucket b.
func (e *Engine) removeAt(b, i int) {
	q := e.buckets[b]
	q[i].ev.queued = false
	last := len(q) - 1
	q[i] = q[last]
	q[last] = entry{}
	e.buckets[b] = q[:last]
	e.n--
	switch {
	case b == 0:
		if i != last && e.up0(i) == i {
			e.down0(i)
		}
	case last == 0:
		e.mask &^= 1 << b
	}
}

// scan discards the cancelled entries of bucket b and returns the
// earliest instant among the rest; ok is false when none remain.
func (e *Engine) scan(b int) (min Time, ok bool) {
	q := e.buckets[b]
	min = maxTime
	for i := 0; i < len(q); {
		if q[i].ev.cancel {
			e.removeAt(b, i)
			q = e.buckets[b]
			continue
		}
		if q[i].at < min {
			min = q[i].at
		}
		i++
	}
	return min, len(q) > 0
}

// rebase moves base to min, the earliest instant of bucket b (the lowest
// non-empty one), and redistributes that bucket: every entry differs
// from min only below bit b-1, so all land in lower buckets.
func (e *Engine) rebase(b int, min Time) {
	e.base = min
	q := e.buckets[b]
	e.buckets[b] = q[:0]
	e.mask &^= 1 << b
	for _, x := range q {
		e.place(x)
	}
	clear(q)
}

// head returns the queue's next live event without removing it, or nil
// when the queue is empty or its next live event lies after limit. It
// discards cancelled events it meets on the way and re-bases only onto
// an instant no later than limit.
func (e *Engine) head(limit Time) *Event {
	for e.n > 0 {
		if q := e.buckets[0]; len(q) > 0 {
			if e.base > limit {
				return nil
			}
			if ev := q[0].ev; !ev.cancel {
				return ev
			}
			e.pop0()
			continue
		}
		b := bits.TrailingZeros64(e.mask)
		// Every instant in bucket b shares base's bits above b-1 and has
		// bit b-1 set: a horizon below that bound needs no scan.
		if lo := e.base&^(1<<b-1) | 1<<(b-1); lo > limit {
			return nil
		}
		min, ok := e.scan(b)
		if !ok {
			continue
		}
		if min > limit {
			return nil
		}
		e.rebase(b, min)
	}
	return nil
}

// pop0 removes and returns bucket 0's first event.
func (e *Engine) pop0() *Event {
	ev := e.buckets[0][0].ev
	e.removeAt(0, 0)
	return ev
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not ready to use; construct one with NewEngine.
//
// Engine is deliberately not safe for concurrent use: OSNT's hardware
// pipelines are modelled as a causal sequence of events, and determinism is
// a design requirement (see DESIGN.md).
type Engine struct {
	now Time

	// The radix queue (see above): buckets[b] with b ≥ 1 is non-empty
	// exactly when bit b of mask is set; n counts every queued event,
	// cancelled ones included.
	base    Time
	buckets [numBuckets][]entry
	mask    uint64
	n       int

	seq     uint64
	running bool
	fired   uint64

	// The point the run has reached, for Passed: the (prio, seq) of the
	// event firing or last fired at now, or (PrioDefault, MaxUint64)
	// once every event up to and including now has run (RunUntil
	// reached its horizon, or the queue drained).
	curPrio, curSeq uint64
	// reservedMax is the latest instant handed to Reserve.
	reservedMax Time
}

// NewEngine returns an engine with its clock at instant 0 and an empty
// event queue.
func NewEngine() *Engine {
	e := &Engine{}
	// Carve every bucket's first few slots out of one array: a queue
	// spreads its events over a dozen or more buckets, and growing each
	// from nil would cost several small allocations apiece.
	slab := make([]entry, numBuckets*bucketSlab)
	for b := range e.buckets {
		e.buckets[b] = slab[b*bucketSlab : b*bucketSlab : (b+1)*bucketSlab]
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return e.n }

// Fired returns the total number of events executed so far. Useful for
// workload accounting in benchmarks.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule queues fn to run at instant at. Scheduling in the past panics:
// it would mean a component violated causality, which is always a bug.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := &Event{at: at, prio: PrioDefault, seq: e.seq, fn: fn}
	e.seq++
	e.push(ev)
	return ev
}

// SchedulePrio queues fn to run at instant at with an explicit
// same-instant priority: among events at one instant, lower prio fires
// first and PrioDefault fires last (in FIFO order). Wire links use a
// delayed cable's topology key here so simultaneous arrivals on
// different cables are served in a structural order rather than whatever
// order their delivery events happened to be armed in.
func (e *Engine) SchedulePrio(at Time, prio uint64, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := &Event{at: at, prio: prio, seq: e.seq, fn: fn}
	e.seq++
	e.push(ev)
	return ev
}

// ScheduleAfter queues fn to run d after the current instant. A negative d
// panics.
func (e *Engine) ScheduleAfter(d Duration, fn func()) *Event {
	return e.Schedule(e.now.Add(d), fn)
}

// Reschedule re-arms an event that has already fired (or been popped as
// cancelled), reusing its allocation and callback instead of building a
// fresh Event. This is the zero-allocation path for self-rescheduling
// work: a component that fires once per packet keeps a single Event alive
// for its whole lifetime rather than pushing one heap allocation per
// packet through the garbage collector. Rescheduling an event that is
// still queued panics — that would corrupt the queue.
func (e *Engine) Reschedule(ev *Event, at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", at, e.now))
	}
	if ev.queued {
		panic("sim: reschedule of an event still in the queue")
	}
	ev.at = at
	ev.prio = PrioDefault
	ev.seq = e.seq
	ev.cancel = false
	e.seq++
	e.push(ev)
}

// ReschedulePrio is Reschedule with an explicit same-instant priority,
// the reusable-event spelling of SchedulePrio.
func (e *Engine) ReschedulePrio(ev *Event, at Time, prio uint64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", at, e.now))
	}
	if ev.queued {
		panic("sim: reschedule of an event still in the queue")
	}
	ev.at = at
	ev.prio = prio
	ev.seq = e.seq
	ev.cancel = false
	e.seq++
	e.push(ev)
}

// RescheduleAfter re-arms a fired event d after the current instant.
func (e *Engine) RescheduleAfter(ev *Event, d Duration) {
	e.Reschedule(ev, e.now.Add(d))
}

// Reprogram moves an event to a new instant whether or not it is still
// queued: a pending event is taken out of its bucket and re-queued under
// the new key, and a fired or discarded one is re-armed exactly like
// Reschedule. Either way the event takes a fresh sequence number, so it
// orders after everything already scheduled for the same instant — the
// same FIFO position a freshly scheduled event would get. Batch consumers
// use this to slide an in-flight completion event (a DMA drain, a
// retransmit timer) forward or backward without cancel/re-create pairs.
func (e *Engine) Reprogram(ev *Event, at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: reprogram at %v before now %v", at, e.now))
	}
	if ev.queued {
		e.remove(ev)
	}
	e.Reschedule(ev, at)
}

// Step executes the next pending event, advancing the clock to its instant.
// It returns false when the queue is empty. Cancelled events are discarded
// without advancing the clock.
//
// An empty queue counts every reservation (see Reserve) as fired: the
// clock moves up to the latest reserved instant, where the reserved
// events would have left it had they been queued.
func (e *Engine) Step() bool {
	ev := e.head(maxTime)
	if ev == nil {
		e.now = max(e.now, e.reservedMax)
		e.curPrio, e.curSeq = PrioDefault, math.MaxUint64
		return false
	}
	e.pop0()
	e.fire(ev)
	return true
}

// fire runs the event just taken from the queue.
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	e.curPrio, e.curSeq = ev.prio, ev.seq
	e.fired++
	ev.fn()
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	e.running = true
	for e.running && e.Step() {
	}
	e.running = false
}

// RunUntil executes events up to and including instant t, then sets the
// clock to t. Events scheduled after t remain queued.
func (e *Engine) RunUntil(t Time) {
	e.running = true
	for e.running {
		ev := e.head(t)
		if ev == nil {
			if e.now <= t {
				e.now = t
				e.curPrio, e.curSeq = PrioDefault, math.MaxUint64
			}
			break
		}
		e.pop0()
		e.fire(ev)
	}
	e.running = false
}

// RunFor executes events for a span d of virtual time from the current
// instant.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Stop makes a Run/RunUntil in progress return after the current event.
// Calling Stop outside an event callback has no effect.
func (e *Engine) Stop() { e.running = false }

// Peek returns the instant of the next pending event without executing
// it. Reserved instants (see Reserve) are not events and never show.
func (e *Engine) Peek() (Time, bool) {
	for e.n > 0 {
		if q := e.buckets[0]; len(q) > 0 {
			if q[0].ev.cancel {
				e.pop0()
				continue
			}
			return e.base, true
		}
		if min, ok := e.scan(bits.TrailingZeros64(e.mask)); ok {
			return min, true
		}
	}
	return 0, false
}

// Reserve consumes the sequence number the next Schedule-family call
// would take and returns it, without queueing anything: the key
// (at, PrioDefault, seq) is the one Reschedule(ev, at) would have given
// an event here. A component whose completion event usually has nothing
// to do reserves the key instead of queueing the event; when work does
// arrive before that key has passed (see Passed) it queues the event
// under the reserved key with RescheduleReserved, so every event it does
// queue fires exactly where it always would have. at must not be before
// Now.
func (e *Engine) Reserve(at Time) uint64 {
	if at < e.now {
		panic(fmt.Sprintf("sim: reserve at %v before now %v", at, e.now))
	}
	s := e.seq
	e.seq++
	e.reservedMax = max(e.reservedMax, at)
	return s
}

// Passed reports whether an event queued under the key
// (at, PrioDefault, seq) would already have fired: inside a callback,
// whether it orders before the event firing now; after RunUntil(t),
// whether at ≤ t; after Stop, whether it orders before the last event
// fired; after the queue drained, always.
func (e *Engine) Passed(at Time, seq uint64) bool {
	if at != e.now {
		return at < e.now
	}
	return e.curPrio == PrioDefault && seq < e.curSeq
}

// Reached reports whether an event queued under the key
// (at, PrioDefault, seq) has fired or is firing now: Passed, or the key
// of the event whose callback is running.
func (e *Engine) Reached(at Time, seq uint64) bool {
	if at != e.now {
		return at < e.now
	}
	return e.curPrio == PrioDefault && seq <= e.curSeq
}

// RescheduleReserved re-arms a fired (or never queued) event under a key
// taken by Reserve, which must not have passed yet.
func (e *Engine) RescheduleReserved(ev *Event, at Time, seq uint64) {
	if e.Passed(at, seq) {
		panic(fmt.Sprintf("sim: reserved key (%v, %d) already passed", at, seq))
	}
	if ev.queued {
		panic("sim: reschedule of an event still in the queue")
	}
	ev.at = at
	ev.prio = PrioDefault
	ev.seq = seq
	ev.cancel = false
	e.push(ev)
}

// NewEvent returns an event that is not queued: an idle reusable event
// for a component to arm later with Reschedule or RescheduleReserved.
// Creating it up front keeps the allocation out of the component's hot
// path.
func NewEvent(fn func()) *Event {
	return &Event{fn: fn}
}

// ScheduleEvery schedules fn at t0, t0+period, t0+2*period, ... until the
// returned Ticker is stopped; fn observes the engine clock at each firing.
// It is the allocation-free periodic primitive: one Event (and one
// callback closure) is reused for every tick, so a CBR source ticking
// 14.88 M times per simulated second costs the event queue nothing beyond
// its single long-lived entry.
func (e *Engine) ScheduleEvery(t0 Time, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.ev = e.Schedule(t0, t.fire)
	return t
}

// Ticker repeatedly fires a callback at a fixed virtual-time period. The
// underlying Event is reused across firings (see ScheduleEvery).
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func()
	ev      *Event
	stopped bool
}

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped the ticker
		t.engine.RescheduleAfter(t.ev, t.period)
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.ev != nil {
		t.ev.Cancel()
	}
}

// Reset re-arms a stopped ticker to fire at t0 (and every period after),
// reusing the ticker's event. It is the sanctioned stop-then-reuse path:
// Stop leaves the event cancel-flagged — possibly still sitting in the
// queue — and a bare Reschedule of it would panic on the pending case
// and silently keep the cancel flag on the popped one. Reprogram handles
// both: a still-queued event is re-keyed in place and a popped one is
// re-armed, and either way the cancel flag clears. Resetting a running
// ticker simply moves its next firing to t0.
func (t *Ticker) Reset(t0 Time) {
	t.stopped = false
	t.engine.Reprogram(t.ev, t0)
}
