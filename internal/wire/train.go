package wire

import (
	"osnt/internal/sim"
)

// Train is a contiguous run of back-to-back frames on one wire: frame
// k+1's first bit follows frame k's last bit with no idle gap beyond the
// standard inter-frame gap (which SerializationTime already accounts
// for). It is the one unit every device hands to the next: a link
// transmits a run, carries it as one in-flight entry drained by one
// event, and delivers it to its peer's Receive, which recovers the
// exact per-frame first-bit/last-bit instants arithmetically from Rate
// and the frame sizes. A single frame is a run of one (Frame.Train), so
// there is no separate per-frame path; a generator that emits N abutting
// frames hands them over as one pooled Train, which changes how many
// engine events the run costs — never a timestamp, a counter, or a drop
// decision.
//
// A Train never implies anything about frame contents: sizes and bytes
// may vary frame to frame. Uniform marks the special case of
// byte-identical frames (one flow, no per-frame mutation), which lets
// consumers hoist per-flow work — a filter verdict, an RSS hash, an FDB
// lookup — out of the per-frame loop. Consumers that find Uniform false
// simply iterate.
//
// Ownership follows the Frame rule: exactly one component owns the train
// at a time. The owner either hands the whole run on, or consumes the
// frames one by one with Take (forwarding each onward, or releasing it);
// Release drops everything at once. A pooled container and its Frames
// slice recycle through the owning Pool, so steady-state batching
// allocates nothing; a frame's run-of-one view lives inside the frame.
type Train struct {
	// Frames holds the run in wire order; len(Frames) >= 1.
	Frames []*Frame
	// Rate is the serialization rate of the wire that carried the run;
	// per-frame boundaries inside the train derive from it.
	Rate Rate
	// Uniform reports that every frame carries identical bytes (and
	// hence an identical size and flow digest).
	Uniform bool

	pool *Pool
}

// Train returns f as a run of one. The view is embedded in the frame, so
// handing a single frame through the run-based hand-offs costs no
// container; it stays valid until the frame is released.
func (f *Frame) Train() *Train {
	f.self[0] = f
	f.one = Train{Frames: f.self[:], Uniform: true}
	return &f.one
}

// Len returns the number of frames in the run.
func (t *Train) Len() int { return len(t.Frames) }

// Span returns the total wire occupancy of the run at t.Rate.
func (t *Train) Span() sim.Duration {
	var d sim.Duration
	for _, f := range t.Frames {
		d += SerializationTime(f.Size, t.Rate)
	}
	return d
}

// Take removes frame i from the run and hands it to the caller. Taking
// the last frame also recycles the container, before the frame is
// returned: a run of one lives inside its frame, so the container must
// be finished with before that frame moves on. Callers take the frames
// in order and touch the train no more after the last Take.
func (t *Train) Take(i int) *Frame {
	f := t.Frames[i]
	t.Frames[i] = nil
	if i == len(t.Frames)-1 {
		t.Frames = t.Frames[:0]
		t.Recycle()
	}
	return f
}

// Release drops the whole run: every frame returns to its pool and the
// container recycles. The terminal-endpoint shorthand.
func (t *Train) Release() {
	for i := range t.Frames {
		t.Take(i).Release()
	}
}

// Recycle returns the container (not the frames) to its pool. A no-op on
// unpooled trains, a frame's run-of-one view included.
func (t *Train) Recycle() {
	if p := t.pool; p != nil {
		t.pool = nil
		p.putTrain(t)
	}
}
