package wire

import (
	"testing"
	"unsafe"

	"osnt/internal/sim"
)

// trainFrames builds unpooled frames of the given payload lengths.
func trainFrames(lens ...int) []*Frame {
	fs := make([]*Frame, len(lens))
	for i, n := range lens {
		fs[i] = NewFrame(make([]byte, n))
	}
	return fs
}

// delivery is one observed per-frame arrival.
type delivery struct {
	size      int
	start, at sim.Time
}

// TestTransmitTrainMatchesPerFrame is the wire-level exactness contract:
// a mixed-size train walked by a per-frame endpoint must produce
// byte-for-byte the same (size, first-bit, last-bit) tuples, the same
// return value and the same link counters as the equivalent sequence of
// single-frame transmissions — while occupying one in-flight entry
// instead of N.
func TestTransmitTrainMatchesPerFrame(t *testing.T) {
	lens := []int{60, 1514, 124, 508}
	run := func(asTrain bool) (got []delivery, end sim.Time, inflight int, tx, bytes uint64) {
		e := sim.NewEngine()
		sink := EndpointFunc(func(f *Frame, start, at sim.Time) {
			got = append(got, delivery{f.Size, start, at})
		})
		l := NewLink(e, Rate10G, 30*sim.Nanosecond, sink)
		if asTrain {
			tr := &Train{Frames: trainFrames(lens...)}
			end = l.Transmit(tr, 0)
		} else {
			for _, f := range trainFrames(lens...) {
				end = l.Transmit(f.Train(), 0)
			}
		}
		inflight = l.InFlight()
		e.Run()
		return got, end, inflight, l.TxFrames(), l.TxWireBytes()
	}

	ref, refEnd, refInflight, refTx, refBytes := run(false)
	got, end, inflight, tx, bytes := run(true)
	if len(ref) != len(lens) || len(got) != len(lens) {
		t.Fatalf("deliveries: per-frame %d, train %d, want %d", len(ref), len(got), len(lens))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("frame %d: train delivery %+v, per-frame %+v", i, got[i], ref[i])
		}
	}
	if end != refEnd {
		t.Errorf("end: train %v, per-frame %v", end, refEnd)
	}
	if tx != refTx || bytes != refBytes {
		t.Errorf("counters: train %d frames/%d bytes, per-frame %d/%d", tx, bytes, refTx, refBytes)
	}
	if refInflight != len(lens) || inflight != 1 {
		t.Errorf("in-flight entries: per-frame %d (want %d), train %d (want 1)", refInflight, len(lens), inflight)
	}
}

// trainSink records whole-run deliveries.
type trainSink struct {
	trains []*Train
	starts []sim.Time
	ats    []sim.Time
}

func (s *trainSink) Receive(t *Train, start, at sim.Time) {
	s.trains = append(s.trains, t)
	s.starts = append(s.starts, start)
	s.ats = append(s.ats, at)
}

// TestTransmitTrainToTrainEndpoint checks run delivery: the peer gets
// the whole run in one Receive call whose start/at are the FIRST frame's
// first-bit and last-bit instants (propagation delay included), with the
// train stamped with the link rate the boundaries derive from.
func TestTransmitTrainToTrainEndpoint(t *testing.T) {
	e := sim.NewEngine()
	sink := &trainSink{}
	const delay = 50 * sim.Nanosecond
	l := NewLink(e, Rate40G, delay, sink)

	tr := &Train{Frames: trainFrames(60, 60, 1514), Rate: Rate40G}
	span := tr.Span()
	const earliest = sim.Time(1000)
	end := l.Transmit(tr, earliest)
	e.Run()

	if len(sink.trains) != 1 {
		t.Fatalf("got %d run deliveries, want 1", len(sink.trains))
	}
	if got := sink.trains[0]; got.Len() != 3 || got.Rate != Rate40G {
		t.Errorf("delivered train: %d frames at rate %v", got.Len(), got.Rate)
	}
	if want := earliest.Add(span); end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
	firstSer := SerializationTime(64, Rate40G)
	if want := earliest.Add(delay); sink.starts[0] != want {
		t.Errorf("start = %v, want %v", sink.starts[0], want)
	}
	if want := earliest.Add(firstSer).Add(delay); sink.ats[0] != want {
		t.Errorf("at = %v, want %v", sink.ats[0], want)
	}
}

// TestTransmitTrainOfOneDegrades checks that a frame's run-of-one view
// crosses the link with the exact single-frame arithmetic and arrives as
// the same view of the same frame, with no container involved.
func TestTransmitTrainOfOneDegrades(t *testing.T) {
	e := sim.NewEngine()
	sink := &trainSink{}
	l := NewLink(e, Rate10G, 0, sink)
	f := NewFrame(make([]byte, 60))
	end := l.Transmit(f.Train(), 0)
	e.Run()
	ser := SerializationTime(64, Rate10G)
	if end != sim.Time(0).Add(ser) {
		t.Errorf("end = %v, want %v", end, ser)
	}
	if len(sink.trains) != 1 || sink.starts[0] != 0 || sink.ats[0] != sim.Time(0).Add(ser) {
		t.Fatalf("deliveries = %d at %v/%v", len(sink.trains), sink.starts, sink.ats)
	}
	if got := sink.trains[0]; got != &f.one || got.Len() != 1 || got.Frames[0] != f || !got.Uniform {
		t.Errorf("delivered run %+v is not the frame's own run of one", got)
	}
}

// TestTransmitTrainUnterminated checks the nil-peer path: every frame of
// the run is counted, attributed to the link's drop site and returned to
// its pool, and the wire still reports the full occupancy.
func TestTransmitTrainUnterminated(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, Rate10G, 0, nil)
	var ledger DropLedger
	hop := ledger.Add("fibre")
	l.SetDropSite(&ledger, hop)

	pool := NewPool()
	tr := pool.GetTrain()
	for i := 0; i < 3; i++ {
		tr.Frames = append(tr.Frames, pool.Get(60))
	}
	tr.Rate = Rate10G
	span := tr.Span()
	end := l.Transmit(tr, 0)
	e.Run()

	if end != sim.Time(0).Add(span) {
		t.Errorf("end = %v, want %v", end, span)
	}
	if l.Drops() != 3 {
		t.Errorf("link drops = %d, want 3", l.Drops())
	}
	if n := ledger.Count(hop, DropUnterminated); n != 3 {
		t.Errorf("ledger unterminated = %d, want 3", n)
	}
	if _, puts, _ := pool.Stats(); puts != 3 {
		t.Errorf("pool releases = %d, want 3", puts)
	}
	if l.TxFrames() != 3 {
		t.Errorf("txFrames = %d, want 3", l.TxFrames())
	}
}

// TestTransmitTrainBusyChaining checks the busy-horizon clamp: a train
// submitted while the link is still serialising starts exactly at
// busyUntil, so back-to-back singles and trains interleave with the same
// arithmetic as a MAC queue.
func TestTransmitTrainBusyChaining(t *testing.T) {
	e := sim.NewEngine()
	var got []delivery
	sink := EndpointFunc(func(f *Frame, start, at sim.Time) {
		got = append(got, delivery{f.Size, start, at})
	})
	l := NewLink(e, Rate10G, 0, sink)
	ser := SerializationTime(64, Rate10G)

	single := l.Transmit(NewFrame(make([]byte, 60)).Train(), 0)
	tr := &Train{Frames: trainFrames(60, 60)}
	end := l.Transmit(tr, 0) // wants 0, must clamp to the single's end
	e.Run()

	if want := single.Add(2 * ser); end != want {
		t.Errorf("train end = %v, want %v", end, want)
	}
	if len(got) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(got))
	}
	for i, d := range got {
		fb := sim.Time(0).Add(sim.Duration(i) * ser)
		if want := (delivery{64, fb, fb.Add(ser)}); d != want {
			t.Errorf("frame %d: %+v, want %+v", i, d, want)
		}
	}
}

// TestRunOfOneReleasesItsFrame checks the view's ownership contract: a
// frame handed on as its run of one is consumed exactly once, whether the
// consumer releases the run or takes the frame out of it.
func TestRunOfOneReleasesItsFrame(t *testing.T) {
	pool := NewPool()
	pool.Get(60).Train().Release()
	f := pool.Get(60)
	run := f.Train()
	if got := run.Take(0); got != f || run.Len() != 0 {
		t.Fatalf("Take(0) = %p (run now %d frames), want the frame itself and an empty run", got, run.Len())
	}
	f.Release()
	if _, puts, _ := pool.Stats(); puts != 2 {
		t.Fatalf("pool releases = %d, want 2", puts)
	}
}

// TestFrameFillsItsSizeClass pins Frame to the 256-byte allocation
// class: its objects are 64-byte aligned, which keeps the fields a hop
// reads through the run-of-one view on one cache line. A field added to
// Frame must come out of the padding.
func TestFrameFillsItsSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is tuned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Frame{}); got != 256 {
		t.Fatalf("sizeof(Frame) = %d, want 256", got)
	}
	if end := unsafe.Offsetof(Frame{}.one) + unsafe.Sizeof([]*Frame(nil)); end > 64 {
		t.Fatalf("Data, Size, self and one.Frames end at byte %d, want ≤ 64", end)
	}
}
