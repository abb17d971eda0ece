package switchsim

import (
	"testing"

	"osnt/internal/sim"
	"osnt/internal/wire"
)

// A unicast toward a learned port that has no link is lost the way
// hardware loses it — dropped, counted and attributed to the ledger as
// an unconnected-port loss — not a crash; loss stays conserved.
func TestUnicastToUnlinkedPortDropped(t *testing.T) {
	tp := newTopo(t, Config{Ports: 4, HopID: 5}, 2) // ports 2 and 3 unlinked
	ledger := &wire.DropLedger{}
	ledger.Register(5, "sw")
	tp.sw.SetDropSite(ledger, 5)
	tp.sw.Learn(macC, 2)
	tp.send(0, udpFrame(macA, macC, 64))
	tp.send(0, udpFrame(macA, macB, 64)) // unknown: floods to the one linked port
	tp.e.Run()
	if got := tp.sw.UnconnectedDrops(); got != 1 {
		t.Fatalf("UnconnectedDrops = %d, want 1", got)
	}
	if got := ledger.Count(5, wire.DropUnconnected); got != 1 {
		t.Fatalf("ledger unconnected drops at hop 5 = %d, want 1", got)
	}
	delivered := uint64(len(tp.rx[0]) + len(tp.rx[1]))
	if delivered != 1 || delivered+ledger.Total() != 2 {
		t.Fatalf("delivered %d + lost %d, want 1 + 1 of 2 sent", delivered, ledger.Total())
	}
}

// TestEgressTieAtMACFree pins the same-instant order at an egress port:
// two lookups (ports 0 and 1) complete at exactly the instant the egress
// MAC finishes a frame, while the egress queue is one frame short of
// EgressQueueCap. If both lookup events were armed before the
// transmission started they fire first, so one frame fills the queue and
// the other is dropped; armed after it, the MAC frees first, one queued
// frame moves onto the wire and both fit. Drops, the queue depth after
// the instant and every egress instant follow from that order, whether
// the transmit-done event is queued or only its key is reserved.
func TestEgressTieAtMACFree(t *testing.T) {
	const (
		size = 512
		l0   = sim.Time(sim.Microsecond)
	)
	ser := wire.SerializationTime(size, wire.Rate10G)
	for _, qcap := range []int{1, 4} {
		for _, lookupFirst := range []bool{true, false} {
			// The lookups complete at T = X's ready + ser. They are armed
			// when Y and Z arrive, at l0 + ser; X's transmission starts at
			// its ready instant l0 + service + pipeline. The pipeline
			// latency picks which comes first.
			pipe := 450 * sim.Nanosecond
			if !lookupFirst {
				pipe = sim.Picosecond
			}
			e := sim.NewEngine()
			sw := New(e, Config{Ports: 4, EgressQueueCap: qcap, LookupPerPacket: 20 * sim.Nanosecond,
				LookupPerByte: sim.Picosecond, PipelineLatency: pipe})
			ledger := &wire.DropLedger{}
			ledger.Register(1, "sw")
			sw.SetDropSite(ledger, 1)
			var out []sim.Time
			sw.Port(2).SetLink(wire.NewLink(e, wire.Rate10G, 0, wire.EndpointFunc(func(f *wire.Frame, _, at sim.Time) {
				out = append(out, at)
			})))
			sw.Learn(macC, 2)
			service := sw.cfg.LookupPerPacket + size*sw.cfg.LookupPerByte
			if lookupFirst != (ser < service+pipe) {
				t.Fatal("arming order not what the instants were chosen for")
			}
			frame := func() *wire.Train { return udpFrame(macA, macC, size).Train() }
			// X and the qcap-1 fillers arrive on port 3; X's lookup
			// finishes first and the fillers queue behind it well before
			// X's last bit leaves.
			e.Schedule(l0, func() {
				for i := 0; i < qcap; i++ {
					sw.Port(3).Receive(frame(), l0.Add(-ser), l0)
				}
			})
			e.Schedule(l0.Add(ser), func() {
				sw.Port(0).Receive(frame(), l0, l0.Add(ser))
				sw.Port(1).Receive(frame(), l0, l0.Add(ser))
			})
			tie := l0.Add(service + pipe + ser)
			depth := -1
			e.Schedule(tie.Add(1), func() { depth = sw.Port(2).QueueDepth() })
			e.Run()

			name := map[bool]string{true: "lookups first", false: "MAC free first"}[lookupFirst]
			wantDrops, wantDepth := uint64(0), qcap
			if lookupFirst {
				wantDrops, wantDepth = 1, qcap-1
			}
			if got := sw.Port(2).Drops(); got != wantDrops {
				t.Errorf("cap %d, %s: drops = %d, want %d", qcap, name, got, wantDrops)
			}
			if got := ledger.Count(1, wire.DropEgressOverflow); got != wantDrops {
				t.Errorf("cap %d, %s: ledger overflow drops = %d, want %d", qcap, name, got, wantDrops)
			}
			if depth != wantDepth {
				t.Errorf("cap %d, %s: queue depth just after the tie = %d, want %d", qcap, name, depth, wantDepth)
			}
			if n := uint64(len(out)); n+wantDrops != uint64(qcap)+2 {
				t.Errorf("cap %d, %s: %d frames left the egress, want %d", qcap, name, n, uint64(qcap)+2-wantDrops)
			}
			for i, at := range out {
				if want := tie.Add(sim.Duration(i) * ser); at != want {
					t.Errorf("cap %d, %s: egress frame %d left at %v, want %v", qcap, name, i, at, want)
				}
			}
		}
	}
}
