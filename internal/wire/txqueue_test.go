package wire

import (
	"testing"

	"osnt/internal/sim"
)

// txRig drives a TxQueue the way a device does: every accepted push and
// every completion runs the Next/Send sequence. The link has no delay,
// so each recorded first-bit instant is the frame's departure.
type txRig struct {
	e      *sim.Engine
	q      TxQueue
	starts []sim.Time
}

func newTxRig(capFrames int) *txRig {
	r := &txRig{e: sim.NewEngine()}
	r.q.Init(r.e, capFrames, r.send)
	r.q.SetLink(NewLink(r.e, Rate10G, 0, EndpointFunc(func(_ *Frame, start, _ sim.Time) {
		r.starts = append(r.starts, start)
	})))
	return r
}

func (r *txRig) send() {
	if t, start, ok := r.q.Next(); ok {
		r.q.Send(t, start)
	}
}

// push offers an n-frame run of size-byte frames from earliest on.
func (r *txRig) push(n, size int, earliest sim.Time) (DropReason, bool) {
	t := &Train{}
	for i := 0; i < n; i++ {
		t.Frames = append(t.Frames, NewFrame(make([]byte, size-FCSLen)))
	}
	why, ok := r.q.Push(t, n, earliest, DropTxOverflow)
	if ok {
		r.send()
	}
	return why, ok
}

// TestTxQueuePushAroundReservedKey sends frame A at 0, which leaves the
// queue empty, so its completion at end is only a reserved key. Frame B
// then arrives before end, at end in an event ordered before the
// reserved key, at end in one ordered after it, or after end. B must
// leave at the same instant, and observe the same MAC state, as it would
// with a queued completion: held in the queue until the completion
// fires when the key has not passed, sent at once when it has.
func TestTxQueuePushAroundReservedKey(t *testing.T) {
	ser := SerializationTime(64, Rate10G)
	end := sim.Time(0).Add(ser)
	cases := []struct {
		name      string
		at        sim.Time
		beforeKey bool // B's event orders before A's completion key
		queued    bool // B waits in the queue for the completion
		start     sim.Time
	}{
		{"before", sim.Time(0).Add(ser / 2), true, true, end},
		{"at/lower-seq", end, true, true, end},
		{"at/higher-seq", end, false, false, end},
		{"after", end.Add(ser), false, false, end.Add(ser)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newTxRig(4)
			var idle bool
			depth := -1
			pushB := func() {
				idle = r.q.Idle()
				if _, ok := r.push(1, 64, r.e.Now()); !ok {
					t.Fatal("B refused")
				}
				depth = r.q.Len()
			}
			if c.beforeKey {
				r.e.Schedule(c.at, pushB) // sequenced before A's send reserves its key
			}
			r.e.Schedule(0, func() {
				r.push(1, 64, 0)
				// A left the queue empty: its completion is not queued, only
				// the link's delivery of A is.
				if want := 1 + b2i(c.beforeKey); r.e.Pending() != want {
					t.Fatalf("%d events pending after A's send, want %d", r.e.Pending(), want)
				}
				if !c.beforeKey {
					r.e.Schedule(c.at, pushB)
				}
			})
			r.e.Run()
			if idle == c.queued {
				t.Errorf("Idle() before B = %v, want %v", idle, !c.queued)
			}
			if want := b2i(c.queued); depth != want {
				t.Errorf("queue depth after B's push = %d, want %d", depth, want)
			}
			if len(r.starts) != 2 || r.starts[0] != 0 || r.starts[1] != c.start {
				t.Fatalf("departures %v, want [0 %v]", r.starts, c.start)
			}
			if !r.q.Idle() || r.e.Now() != c.start.Add(ser) {
				t.Fatalf("after drain: Idle %v, clock %v, want true, %v", r.q.Idle(), r.e.Now(), c.start.Add(ser))
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTxQueueIdleExact checks Idle against the MAC's state through two
// back-to-back transmissions: false while a frame is on the wire or
// queued, including at the instant the first completes while the second
// waits, and true from the second's completion key on — not before it
// at the same instant.
func TestTxQueueIdleExact(t *testing.T) {
	ser := SerializationTime(64, Rate10G)
	end1, end2 := sim.Time(0).Add(ser), sim.Time(0).Add(2*ser)
	r := newTxRig(4)
	if !r.q.Idle() {
		t.Fatal("fresh queue not idle")
	}
	var got []bool
	probe := func() { got = append(got, r.q.Idle()) }
	r.e.Schedule(end2, probe) // orders before the second completion's key
	r.e.Schedule(0, func() {
		r.push(1, 64, 0)
		r.push(1, 64, 0)
		probe()
		r.e.Schedule(sim.Time(0).Add(ser/2), probe)
		// At end1 the first completion has fired and sent the second
		// frame; a probe armed now orders after the second's key.
		r.e.Schedule(end1, func() {
			probe()
			r.e.Schedule(end2, probe)
		})
	})
	r.e.Run()
	// Event order: t=0 (false), ser/2 (false), end1 (false), end2
	// before the key (false), end2 after the key (true).
	want := []bool{false, false, false, false, true}
	if len(got) != len(want) {
		t.Fatalf("probes %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("probes %v, want %v", got, want)
		}
	}
}

// TestTxQueueCapCountsFrames fills a queue with a cap of 4 frames with
// multi-frame runs: admission checks the frames already queued, so a
// run that crosses the cap is taken whole and the next one is refused
// with the caller's reason. A queue with no link refuses everything as
// unconnected.
func TestTxQueueCapCountsFrames(t *testing.T) {
	r := newTxRig(4)
	r.push(1, 64, 0) // straight onto the wire
	for i, want := range []int{3, 6} {
		if _, ok := r.push(3, 64, 0); !ok {
			t.Fatalf("run %d refused at depth %d", i, r.q.Len())
		}
		if r.q.Len() != want {
			t.Fatalf("depth %d after run %d, want %d frames", r.q.Len(), i, want)
		}
	}
	if why, ok := r.push(1, 64, 0); ok || why != DropTxOverflow {
		t.Fatalf("push into a full queue: ok %v reason %v, want refused as %v", ok, why, DropTxOverflow)
	}
	if r.q.Len() != 6 {
		t.Fatalf("refused run changed the depth to %d", r.q.Len())
	}
	r.e.Run()
	if len(r.starts) != 7 {
		t.Fatalf("delivered %d frames, want 7", len(r.starts))
	}
	ser := SerializationTime(64, Rate10G)
	for i, s := range r.starts {
		if want := sim.Time(0).Add(sim.Duration(i) * ser); s != want {
			t.Fatalf("frame %d left at %v, want %v (back to back)", i, s, want)
		}
	}

	var q TxQueue
	q.Init(sim.NewEngine(), 4, func() {})
	if why, ok := q.Push(NewFrame(make([]byte, 60)).Train(), 1, 0, DropTxOverflow); ok || why != DropUnconnected {
		t.Fatalf("push without a link: ok %v reason %v, want refused as %v", ok, why, DropUnconnected)
	}
}

// TestTxQueueEntryKeepsEarliest queues two runs behind a busy MAC: B may
// not leave before its own earliest instant, later than the moment the
// MAC frees, and C, due earlier, still leaves after B in FIFO order.
func TestTxQueueEntryKeepsEarliest(t *testing.T) {
	r := newTxRig(8)
	bAt := sim.Time(2 * sim.Microsecond)
	r.push(1, 1518, 0) // busy until 1.2304 µs
	r.push(1, 64, bAt)
	r.push(1, 64, 0)
	r.e.Run()
	ser := SerializationTime(64, Rate10G)
	want := []sim.Time{0, bAt, bAt.Add(ser)}
	if len(r.starts) != len(want) {
		t.Fatalf("departures %v, want %v", r.starts, want)
	}
	for i := range want {
		if r.starts[i] != want[i] {
			t.Fatalf("departures %v, want %v", r.starts, want)
		}
	}
}
