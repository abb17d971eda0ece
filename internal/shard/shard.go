// Package shard runs one scenario across several sim.Engines in
// parallel while keeping the results byte-identical to a single-engine
// run. It is a conservative-lookahead (CMB-style) parallel
// discrete-event runtime: the topology is partitioned so that every
// cross-shard wire carries a positive propagation delay, and the
// smallest such delay L is the lookahead — during the window
// [W, W + L) no shard can influence another, so all shards advance
// through the window concurrently, one goroutine per engine, and meet
// at a barrier.
//
// Cross-shard links are wire export links (wire.NewExportLink): the
// transmitting shard serialises the frame exactly as a local link
// would — same busy horizon, same counters, same propagation-delayed
// arrival instants — but instead of arming a delivery event it appends
// a record to the (src, dst) boundary channel. Frame ownership
// transfers with the export: the source shard never touches the frame
// again, so the pooled zero-alloc hot path survives the cut without
// sharing. At each barrier the coordinator drains every destination's
// channels, sorts the records by (arrival instant, delivery key,
// source shard, export sequence) — a deterministic total order,
// independent of which shard finished its window first — and schedules
// the deliveries into the destination engine with the boundary link's
// delivery key as the same-instant priority (sim.Engine.SchedulePrio).
// The topology builder gives every positive-delay link a unique key in
// build order, so simultaneous arrivals at a device fire in cable
// order — a property of the wiring, identical at every shard count —
// and a replayed arrival that collides with a local delivery at the
// exact same instant fires in the same relative order a single-engine
// run produces: equality to the last byte, not merely statistical
// equivalence. The lookahead contract makes the arrivals
// provably inside the *next* window: a frame exported at instant τ
// arrives no earlier than τ + L, so the destination — which has only
// advanced to W + L − 1 — has never run past it.
//
// Determinism therefore needs exactly two properties: every per-window
// computation is confined to one engine (the builder partitions
// devices, ledgers and statistics per shard), and every cross-window
// hand-off is replayed in the sorted order above. go test -race runs
// the whole suite over the barrier protocol.
package shard

import (
	"fmt"
	"slices"

	"osnt/internal/sim"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// record is one exported run of frames crossing a shard boundary,
// buffered between the window it was transmitted in and the barrier
// that replays it.
type record struct {
	t                 *wire.Train
	peer              wire.Endpoint
	firstBit, lastBit sim.Time
	// key is the boundary link's structural delivery key (wire.Exporter's
	// contract); the replay passes it through to the destination engine
	// so the delivery takes the same same-instant position a
	// single-engine run gives it.
	key uint64
	src int
	seq uint64
}

// channel buffers the records of one (src, dst) shard pair. All
// boundary links from src to dst share it; seq counts exports in src's
// event order, which breaks arrival-instant ties deterministically.
// Only shard src appends (during its window) and only the coordinator
// drains (at the barrier), so the buffer needs no lock — the barrier's
// happens-before edges carry it between goroutines.
type channel struct {
	src, dst int
	recs     []record
	seq      uint64
}

// boundary adapts one cross-shard link onto its (src, dst) channel; it
// is the wire.Exporter the export link calls from the hot path.
type boundary struct {
	ch   *channel
	peer wire.Endpoint
}

// Export implements wire.Exporter.
func (b *boundary) Export(t *wire.Train, firstBit, lastBit sim.Time, key uint64) {
	ch := b.ch
	ch.recs = append(ch.recs, record{t: t, peer: b.peer, firstBit: firstBit, lastBit: lastBit, key: key, src: ch.src, seq: ch.seq})
	ch.seq++
}

// slot is one reusable delivery event on a destination engine: the
// barrier loads it with a record and schedules it; firing hands the
// record to the device endpoint and returns the slot to the shard's
// freelist. Steady state, boundary deliveries allocate nothing.
type slot struct {
	c   *Cluster
	dst int
	ev  *sim.Event
	rec record
}

func (s *slot) fire() {
	rec := s.rec
	s.rec = record{}
	s.c.free[s.dst] = append(s.c.free[s.dst], s)
	rec.peer.Receive(rec.t, rec.firstBit, rec.lastBit)
}

// Cluster owns one engine per shard plus the boundary channels and the
// barrier protocol between them. Shard 0 runs on the calling goroutine;
// shards 1..n-1 each get a worker goroutine that is parked except while
// stepping a window, so between Run/RunUntil calls the caller may touch
// any engine or device directly (the barrier's channel operations order
// those accesses). A 1-shard cluster is a passthrough to the plain
// engine: no goroutines, no channels, no per-event overhead.
type Cluster struct {
	engines   []*sim.Engine
	lookahead sim.Duration // min cross-shard delay; 0 until a boundary exists
	chans     [][]*channel // [src][dst]; nil where no boundary link exists
	free      [][]*slot    // per-destination delivery-slot freelist
	inbox     []record     // barrier merge scratch, reused across windows
	now       sim.Time     // exclusive frontier: all events < now have run
	cmd       []chan sim.Time
	ack       chan any
	closed    bool
}

// NewCluster returns a cluster of n fresh engines (n ≥ 1) and starts
// the n−1 worker goroutines. Call Close when done with a multi-shard
// cluster to stop them.
func NewCluster(n int) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("shard: cluster of %d shards", n))
	}
	c := &Cluster{
		engines: make([]*sim.Engine, n),
		chans:   make([][]*channel, n),
		free:    make([][]*slot, n),
	}
	for i := range c.engines {
		c.engines[i] = sim.NewEngine()
		c.chans[i] = make([]*channel, n)
	}
	if n > 1 {
		c.ack = make(chan any, n-1)
		c.cmd = make([]chan sim.Time, n)
		for i := 1; i < n; i++ {
			c.cmd[i] = make(chan sim.Time, 1)
			go c.worker(i)
		}
	}
	return c
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.engines) }

// Engine returns shard i's engine.
func (c *Cluster) Engine(i int) *sim.Engine { return c.engines[i] }

// Engines returns the per-shard engines, indexed by shard.
func (c *Cluster) Engines() []*sim.Engine { return c.engines }

// Lookahead returns the conservative window width: the smallest
// propagation delay over all cross-shard links built so far (0 when no
// boundary exists yet).
func (c *Cluster) Lookahead() sim.Duration { return c.lookahead }

// CrossLink builds the boundary link for a cross-shard edge. It has the
// signature of topo.Partition.CrossLink, and Partition wires it there.
// The edge's propagation delay must be positive; the smallest delay
// seen across all CrossLink calls becomes the cluster's lookahead.
func (c *Cluster) CrossLink(src, dst int, e *sim.Engine, rate wire.Rate, delay sim.Duration, peer wire.Endpoint) *wire.Link {
	if delay <= 0 {
		panic(fmt.Sprintf("shard: cross-shard link %d → %d with non-positive delay %v", src, dst, delay))
	}
	ch := c.chans[src][dst]
	if ch == nil {
		ch = &channel{src: src, dst: dst}
		c.chans[src][dst] = ch
	}
	if c.lookahead == 0 || delay < c.lookahead {
		c.lookahead = delay
	}
	return wire.NewExportLink(e, rate, delay, &boundary{ch: ch, peer: peer})
}

// Partition returns the topo.Partition that instantiates a graph onto
// this cluster: shardOf maps node names to shard indices (for
// synthesized fabrics, fabric.Spec.PodShard is the natural choice).
func (c *Cluster) Partition(shardOf func(name string) int) topo.Partition {
	return topo.Partition{Engines: c.engines, ShardOf: shardOf, CrossLink: c.CrossLink}
}

// worker is the goroutine body for shards ≥ 1: step the engine to each
// commanded target, acknowledging with the recovered panic value (nil
// on success). No select — the protocol is a strict command/ack pair
// per window, so delivery order is total.
func (c *Cluster) worker(i int) {
	e := c.engines[i]
	for target := range c.cmd[i] {
		c.ack <- protect(e, target)
	}
}

// protect steps one engine to target (target < 0 means run to empty),
// converting a panic into a value so the barrier can re-raise it on the
// caller after every shard has stopped.
func protect(e *sim.Engine, target sim.Time) (p any) {
	defer func() { p = recover() }()
	if target < 0 {
		e.Run()
	} else {
		e.RunUntil(target)
	}
	return nil
}

// step advances every shard to target in parallel (shard 0 inline) and
// waits for all of them — the barrier. A panic in any shard is
// re-raised here once every shard has quiesced.
func (c *Cluster) step(target sim.Time) {
	for i := 1; i < len(c.engines); i++ {
		c.cmd[i] <- target
	}
	p := protect(c.engines[0], target)
	for i := 1; i < len(c.engines); i++ {
		if r := <-c.ack; r != nil && p == nil {
			p = r
		}
	}
	if p != nil {
		panic(p)
	}
}

// drain replays every buffered boundary record into its destination
// engine. Records for one destination merge across all source channels
// and sort by (arrival instant, delivery key, source shard, export
// sequence): a total order fixed by the simulation alone, so the
// replay — and everything downstream of it — is independent of
// goroutine scheduling. Each delivery is scheduled with its link's
// delivery key as the same-instant priority, slotting it exactly where
// the single-engine link event would fire among equal-instant locals.
// Deliveries are scheduled on reused slots; the defensive clamp to the
// destination clock mirrors wire.Link's delivery clamp and is dead code
// whenever the lookahead contract holds.
func (c *Cluster) drain() {
	for dst := range c.engines {
		recs := c.inbox[:0]
		for src := range c.engines {
			ch := c.chans[src][dst]
			if ch == nil || len(ch.recs) == 0 {
				continue
			}
			recs = append(recs, ch.recs...)
			clear(ch.recs)
			ch.recs = ch.recs[:0]
		}
		if len(recs) == 0 {
			continue
		}
		slices.SortFunc(recs, func(a, b record) int {
			switch {
			case a.lastBit != b.lastBit:
				if a.lastBit < b.lastBit {
					return -1
				}
				return 1
			case a.key != b.key:
				if a.key < b.key {
					return -1
				}
				return 1
			case a.src != b.src:
				return a.src - b.src
			case a.seq != b.seq:
				if a.seq < b.seq {
					return -1
				}
				return 1
			default:
				return 0
			}
		})
		e := c.engines[dst]
		fl := c.free[dst]
		for i := range recs {
			at := recs[i].lastBit
			if now := e.Now(); at < now {
				at = now
			}
			var s *slot
			if n := len(fl); n > 0 {
				s = fl[n-1]
				fl = fl[:n-1]
			} else {
				s = &slot{c: c, dst: dst}
			}
			s.rec = recs[i]
			if s.ev == nil {
				s.ev = e.SchedulePrio(at, recs[i].key, s.fire)
			} else {
				e.ReschedulePrio(s.ev, at, recs[i].key)
			}
		}
		c.free[dst] = fl
		clear(recs)
		c.inbox = recs[:0]
	}
}

// RunUntil executes every shard's events up to and including instant t,
// then sets all clocks to t — the sharded spelling of
// sim.Engine.RunUntil. It advances in lookahead-wide windows with a
// barrier and a boundary drain between each. On return all shards are
// parked, so the caller may read any engine or device directly.
func (c *Cluster) RunUntil(t sim.Time) {
	if len(c.engines) == 1 {
		c.engines[0].RunUntil(t)
		if end := t.Add(1); c.now < end {
			c.now = end
		}
		return
	}
	end := t.Add(1) // exclusive frontier target
	for c.now < end {
		w := end
		if c.lookahead > 0 {
			if h := c.now.Add(c.lookahead); h < w {
				w = h
			}
		}
		c.step(w.Add(-1))
		c.drain()
		c.now = w
	}
}

// Run executes events until every shard's queue is empty — the sharded
// spelling of sim.Engine.Run, used to drain in-flight traffic after the
// measurement window. Windows that contain no work are skipped, so an
// almost-empty cluster converges in a handful of barriers rather than
// one per lookahead.
func (c *Cluster) Run() {
	if len(c.engines) == 1 {
		c.engines[0].Run()
		return
	}
	if c.lookahead <= 0 {
		// No boundary links: the shards are fully independent, so one
		// unbounded parallel step empties everything.
		c.step(-1)
		return
	}
	for {
		var next sim.Time
		pending := false
		for _, e := range c.engines {
			if at, ok := e.Peek(); ok && (!pending || at < next) {
				next, pending = at, true
			}
		}
		if !pending {
			return // queues empty; drain always empties the channels
		}
		if next >= c.now {
			c.now = next // idle-skip to the next event's window
		}
		w := c.now.Add(c.lookahead)
		c.step(w.Add(-1))
		c.drain()
		c.now = w
	}
}

// RunFor executes events for a span d of virtual time from the current
// frontier.
func (c *Cluster) RunFor(d sim.Duration) {
	c.RunUntil(c.now.Add(d))
}

// Close stops the worker goroutines. The engines stay readable; only
// Run/RunUntil become invalid. Close is idempotent and a no-op on a
// 1-shard cluster.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for i := 1; i < len(c.engines); i++ {
		close(c.cmd[i])
	}
}
