package sim

import (
	"math"
	"testing"
)

// refEvent is one event of the reference model: its sort key, whether
// it is queued, and the engine Event it mirrors.
type refEvent struct {
	id        int
	at        Time
	prio, seq uint64
	queued    bool
	cancelled bool
	stops     bool // its callback calls Engine.Stop
	ev        *Event
	ticker    *Ticker // set for a ticker's event
	period    Duration
	stopped   bool // ticker stopped
}

// reservation is one key handed out by Reserve and not yet queued.
type reservation struct {
	at  Time
	seq uint64
}

// refEngine predicts the engine from a plain list: the next event is
// the live one with the smallest (at, prio, seq), found by a full scan.
type refEngine struct {
	evs         []*refEvent
	seq         uint64
	now         Time
	curPrio     uint64
	curSeq      uint64
	reservedMax Time
	fired       []int
	stopped     bool
}

func (m *refEngine) next() *refEvent {
	var best *refEvent
	for _, r := range m.evs {
		if !r.queued || r.cancelled {
			continue
		}
		if best == nil || r.at < best.at ||
			r.at == best.at && (r.prio < best.prio || r.prio == best.prio && r.seq < best.seq) {
			best = r
		}
	}
	return best
}

// fire is the model of one event firing, ticker re-arm included.
func (m *refEngine) fire(r *refEvent) {
	r.queued = false
	m.now = r.at
	m.curPrio, m.curSeq = r.prio, r.seq
	m.fired = append(m.fired, r.id)
	if r.stops {
		m.stopped = true
	}
	if r.ticker != nil && !r.stopped {
		r.at, r.prio, r.seq, r.queued = m.now.Add(r.period), PrioDefault, m.seq, true
		m.seq++
	}
}

// drained is the model of Step finding the queue empty.
func (m *refEngine) drained() {
	m.now = max(m.now, m.reservedMax)
	m.curPrio, m.curSeq = PrioDefault, math.MaxUint64
}

func (m *refEngine) passed(at Time, seq uint64) bool {
	if at != m.now {
		return at < m.now
	}
	return m.curPrio == PrioDefault && seq < m.curSeq
}

func (m *refEngine) reached(at Time, seq uint64) bool {
	if at != m.now {
		return at < m.now
	}
	return m.curPrio == PrioDefault && seq <= m.curSeq
}

// TestPropertyQueueMatchesSortedReference drives the engine and a
// sorted-scan reference model through the same seeded mix of every
// queue operation — Schedule and SchedulePrio with dense same-instant
// ties, Cancel, Reprogram of queued and fired events, Ticker
// Stop/Reset, Peek, Step, RunUntil (followed by scheduling at Now), Run
// cut short by Stop, and the Reserve/Passed/Reached/RescheduleReserved
// primitives — and checks after every operation that both agree on the
// order events fired in, the clock, every event's Pending state, every
// outstanding reservation's Passed and Reached verdicts and Peek.
func TestPropertyQueueMatchesSortedReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 0xc0ffee} {
		checkQueueAgainstReference(t, seed)
	}
}

func checkQueueAgainstReference(t *testing.T, seed uint64) {
	e := NewEngine()
	m := &refEngine{}
	r := NewRand(seed)
	var reserved []reservation
	var got []int
	ahead := func() Duration {
		switch r.Intn(6) {
		case 0:
			return 0 // at Now: ties with whatever fires next
		case 1, 2:
			return Duration(r.Intn(8)) // dense same-instant ties
		case 3:
			return Duration(r.Intn(1 << 40)) // far buckets
		default:
			return Duration(r.Intn(1000))
		}
	}
	add := func(at Time, prio uint64, stops bool) {
		rv := &refEvent{id: len(m.evs), at: at, prio: prio, seq: m.seq, queued: true, stops: stops}
		m.seq++
		fn := func() {
			got = append(got, rv.id)
			if rv.stops {
				e.Stop()
			}
		}
		if prio == PrioDefault {
			rv.ev = e.Schedule(at, fn)
		} else {
			rv.ev = e.SchedulePrio(at, prio, fn)
		}
		m.evs = append(m.evs, rv)
	}
	pick := func() *refEvent { return m.evs[r.Intn(len(m.evs))] }
	add(0, PrioDefault, false)

	for op := 0; op < 6000; op++ {
		switch k := r.Intn(21); {
		case k < 5: // schedule, sometimes with an explicit priority
			prio := uint64(PrioDefault)
			if r.Intn(3) == 0 {
				prio = uint64(r.Intn(3))
			}
			add(e.Now().Add(ahead()), prio, r.Intn(15) == 0)
		case k < 7:
			if rv := pick(); rv.ticker == nil {
				rv.ev.Cancel()
				rv.cancelled = true
			}
		case k < 9: // reprogram a queued or fired event
			rv := pick()
			if rv.ticker != nil {
				break
			}
			at := e.Now().Add(ahead())
			e.Reprogram(rv.ev, at)
			rv.at, rv.prio, rv.seq, rv.queued, rv.cancelled = at, PrioDefault, m.seq, true, false
			m.seq++
		case k == 9: // a ticker, or Stop/Reset of an existing one
			var tk *refEvent
			for _, rv := range m.evs {
				if rv.ticker != nil && r.Intn(2) == 0 {
					tk = rv
				}
			}
			switch {
			case tk == nil:
				rv := &refEvent{id: len(m.evs), at: e.Now().Add(ahead()), prio: PrioDefault, seq: m.seq, queued: true, period: Duration(1 + r.Intn(300))}
				m.seq++
				rv.ticker = e.ScheduleEvery(rv.at, rv.period, func() { got = append(got, rv.id) })
				rv.ev = rv.ticker.ev
				m.evs = append(m.evs, rv)
			case !tk.stopped:
				tk.ticker.Stop()
				tk.stopped, tk.cancelled = true, true
			default:
				at := e.Now().Add(ahead())
				tk.ticker.Reset(at)
				tk.stopped = false
				tk.at, tk.prio, tk.seq, tk.queued, tk.cancelled = at, PrioDefault, m.seq, true, false
				m.seq++
			}
		case k < 12: // step
			want := m.next()
			if ok := e.Step(); ok != (want != nil) {
				t.Fatalf("seed %d op %d: Step = %v, want %v", seed, op, ok, want != nil)
			}
			if want == nil {
				m.drained()
			} else {
				m.fire(want)
			}
			m.stopped = false
		case k < 14: // run to a horizon, then schedule at the new Now
			horizon := e.Now().Add(Duration(r.Intn(400)))
			if r.Intn(8) == 0 {
				horizon = e.Now() // an empty window
			}
			e.RunUntil(horizon)
			m.stopped = false
			for !m.stopped {
				want := m.next()
				if want == nil || want.at > horizon {
					m.now = max(m.now, horizon)
					m.curPrio, m.curSeq = PrioDefault, math.MaxUint64
					break
				}
				m.fire(want)
			}
			m.stopped = false
			if r.Intn(2) == 0 {
				add(e.Now(), PrioDefault, false)
			}
		case k == 14: // run until drained or stopped
			ticking := false
			for _, rv := range m.evs {
				ticking = ticking || rv.ticker != nil && !rv.stopped
			}
			if ticking || r.Intn(10) != 0 {
				break // a live ticker never drains
			}
			e.Run()
			m.stopped = false
			for !m.stopped {
				want := m.next()
				if want == nil {
					m.drained()
					break
				}
				m.fire(want)
			}
			m.stopped = false
		case k == 15: // reserve a key
			at := e.Now().Add(ahead())
			seq := e.Reserve(at)
			if seq != m.seq {
				t.Fatalf("seed %d op %d: Reserve took seq %d, want %d", seed, op, seq, m.seq)
			}
			m.seq++
			m.reservedMax = max(m.reservedMax, at)
			reserved = append(reserved, reservation{at, seq})
		case k == 16: // queue a fired event under a live reservation
			rv := pick()
			if rv.ticker != nil || rv.queued || len(reserved) == 0 {
				break
			}
			i := r.Intn(len(reserved))
			res := reserved[i]
			if m.passed(res.at, res.seq) {
				break
			}
			reserved = append(reserved[:i], reserved[i+1:]...)
			e.RescheduleReserved(rv.ev, res.at, res.seq)
			rv.at, rv.prio, rv.seq, rv.queued, rv.cancelled = res.at, PrioDefault, res.seq, true, false
		case k == 17: // a same-instant burst, then re-key one of its members
			at := e.Now().Add(Duration(r.Intn(3)))
			first := len(m.evs)
			for i := 2 + r.Intn(8); i > 0; i-- {
				prio := uint64(PrioDefault)
				if r.Intn(2) == 0 {
					prio = uint64(r.Intn(4))
				}
				add(at, prio, false)
			}
			burst := m.evs[first:]
			rv := burst[r.Intn(len(burst))]
			at = at.Add(Duration(r.Intn(2)))
			e.Reprogram(rv.ev, at)
			rv.at, rv.prio, rv.seq, rv.queued, rv.cancelled = at, PrioDefault, m.seq, true, false
			m.seq++
		default: // peek
			at, ok := e.Peek()
			want := m.next()
			if ok != (want != nil) || ok && at != want.at {
				t.Fatalf("seed %d op %d: Peek = (%v, %v), want %v", seed, op, at, ok, want)
			}
		}

		if len(got) != len(m.fired) {
			t.Fatalf("seed %d op %d: engine fired %v, reference %v", seed, op, got, m.fired)
		}
		for i := range got {
			if got[i] != m.fired[i] {
				t.Fatalf("seed %d op %d: firing %d was event %d, reference %d", seed, op, i, got[i], m.fired[i])
			}
		}
		if e.Now() != m.now {
			t.Fatalf("seed %d op %d: Now = %v, reference %v", seed, op, e.Now(), m.now)
		}
		live, queued := 0, 0
		for _, rv := range m.evs {
			if rv.queued {
				queued++
				if !rv.cancelled {
					live++
					if !rv.ev.Pending() {
						t.Fatalf("seed %d op %d: live event %d not pending", seed, op, rv.id)
					}
				}
			} else if rv.ev.Pending() {
				t.Fatalf("seed %d op %d: event %d pending after it fired", seed, op, rv.id)
			}
		}
		if p := e.Pending(); p < live || p > queued {
			t.Fatalf("seed %d op %d: Pending = %d, want %d live ≤ n ≤ %d queued", seed, op, p, live, queued)
		}
		for _, res := range reserved {
			if got, want := e.Passed(res.at, res.seq), m.passed(res.at, res.seq); got != want {
				t.Fatalf("seed %d op %d: Passed(%v, %d) = %v, reference %v", seed, op, res.at, res.seq, got, want)
			}
			if got, want := e.Reached(res.at, res.seq), m.reached(res.at, res.seq); got != want {
				t.Fatalf("seed %d op %d: Reached(%v, %d) = %v, reference %v", seed, op, res.at, res.seq, got, want)
			}
		}
		// The key of the event fired last has been reached, not passed.
		if got, want := e.Reached(m.now, m.curSeq), m.reached(m.now, m.curSeq); got != want {
			t.Fatalf("seed %d op %d: Reached at the last fired key = %v, reference %v", seed, op, got, want)
		}
	}
	if len(got) < 1000 {
		t.Fatalf("seed %d: only %d events fired", seed, len(got))
	}
}
