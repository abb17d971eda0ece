package main

import (
	"fmt"

	"osnt/internal/fabric"
	"osnt/internal/flowstats"
	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/shard"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/timing"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// params fixes one scenario instance. Everything random in the traffic
// (matrix, per-host generator seeds, flow set) is derived from seed.
type params struct {
	seed     uint64
	length   sim.Duration // virtual length of the offered-traffic window
	shards   int          // fabric workloads: engines the fabric is cut across
	trainCap int          // capture workloads: generator frame-train cap
}

// traceStep is how far a traced run advances per RunUntil: the fabric's
// cable delay, so on the cluster every step is one lookahead window.
const traceStep = cableDelay

// workload is one named benchmark scenario with its standard settings.
type workload struct {
	name  string
	std   params
	build func(p params, pool *wire.Pool, trs []*tracer) scenario
}

// workloads is the benchmark's workload set. BENCHMARK.json lists the
// same names; the order is the order the documentation uses.
var workloads = []workload{
	{
		name: "fabric-perm",
		std:  params{length: 400 * sim.Microsecond, shards: 1},
		build: func(p params, pool *wire.Pool, trs []*tracer) scenario {
			return buildFabric(p, pool, trs, false)
		},
	},
	{
		name: "fabric-hotspot-2shard",
		std:  params{length: 400 * sim.Microsecond, shards: 2},
		build: func(p params, pool *wire.Pool, trs []*tracer) scenario {
			return buildFabric(p, pool, trs, true)
		},
	},
	{
		name: "capture-flows",
		std:  params{length: 3 * sim.Millisecond, trainCap: 64},
		build: func(p params, pool *wire.Pool, trs []*tracer) scenario {
			return buildCapture(p, pool, trs, true)
		},
	},
	{
		name: "trains-100g",
		std:  params{length: 3 * sim.Millisecond, trainCap: 64},
		build: func(p params, pool *wire.Pool, trs []*tracer) scenario {
			return buildCapture(p, pool, trs, false)
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scenario is one built repetition of a workload, ready to run.
type scenario interface {
	// advance runs every event up to and including t.
	advance(t sim.Time)
	// stop halts the generators once the offered window is over.
	stop()
	// drain runs the in-flight traffic to completion.
	drain()
	// flush releases records a merge still holds back; may do nothing.
	flush()
	// sample records queue depths and event counts at a step boundary.
	sample(s *samples)
	// finish reads the counters and digest and makes the output checks.
	finish(r *repResult)
	// close releases goroutines the scenario started.
	close()
}

// samples collects what the traced run reads at each step boundary.
type samples struct {
	pending    []float64 // Σ Pending() over engines
	windowNs   []float64 // wall time of each step
	firedPrev  []uint64  // per-shard Fired() at the previous boundary
	busiestSum uint64    // Σ over steps of the busiest shard's events
	firedSum   uint64    // Σ over steps of all shards' events
	idle       int       // steps in which no shard fired an event
	swDepth    int       // deepest switch egress queue seen
	txDepth    int       // deepest NIC transmit queue seen
	ringDepth  int       // deepest capture ring occupancy seen
	mergeDepth int       // most records the merge held back
}

// stepFired folds one step's per-shard event counts and the pending
// event total into the samples.
func (s *samples) stepFired(engines []*sim.Engine) {
	if s.firedPrev == nil {
		s.firedPrev = make([]uint64, len(engines))
	}
	var sum, busiest uint64
	pending := 0
	for i, e := range engines {
		d := e.Fired() - s.firedPrev[i]
		s.firedPrev[i] = e.Fired()
		sum += d
		busiest = max(busiest, d)
		pending += e.Pending()
	}
	s.pending = append(s.pending, float64(pending))
	s.firedSum += sum
	s.busiestSum += busiest
	if sum == 0 {
		s.idle++
	}
}

// derive mixes the workload seed with a tag and an index into an
// independent 64-bit seed.
func derive(seed, tag, i uint64) uint64 {
	return packet.Mix64(packet.Mix64(seed^tag<<32) + i)
}

// fnvMix folds one 64-bit value into an FNV-1a digest byte by byte.
func fnvMix(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * prime
		v >>= 8
	}
	return h
}

const fnvOffset = 14695981039346656037

// fabricFrameSize is the fabric workloads' frame size: large enough to
// carry the embedded timestamp, small enough to be event-bound.
const fabricFrameSize = 512

// fabricLoad is the per-host offered load as a share of the host line.
const fabricLoad = 0.9

// cableDelay is the propagation delay of every fabric cable, and so the
// lookahead of the 2-shard cluster.
const cableDelay = sim.Microsecond

// crossPodPermutation derives a permutation matrix from the seed in
// which every host sends to, and receives from, exactly one host of
// another pod, so all traffic crosses the core. Pods are deranged at
// random and hosts are matched at random within each pod pair.
func crossPodPermutation(f *fabric.Fabric, seed uint64) []int {
	k := f.Spec.K
	perPod := k * k / 4
	rng := sim.NewRand(derive(seed, 0xfab, 0))
	var podTo []int
	for {
		podTo = rng.Perm(k)
		fixed := false
		for p, q := range podTo {
			fixed = fixed || p == q
		}
		if !fixed {
			break
		}
	}
	dest := make([]int, len(f.Hosts))
	for p := 0; p < k; p++ {
		slots := rng.Perm(perPod)
		for s := 0; s < perPod; s++ {
			dest[p*perPod+s] = podTo[p]*perPod + slots[s]
		}
	}
	return dest
}

// fabricMatrix returns the workload's traffic matrix: the seeded
// cross-pod permutation, or with hotspot set the same permutation with
// a seeded hot host drawing a quarter of every other host's load, the
// shape of fabric.HotSpot.
func fabricMatrix(f *fabric.Fabric, seed uint64, hotspot bool) fabric.TrafficMatrix {
	dest := crossPodPermutation(f, seed)
	m := fabric.TrafficMatrix{Name: "permutation", Dests: make([][]int, len(dest))}
	if !hotspot {
		for i, d := range dest {
			m.Dests[i] = []int{d}
		}
		return m
	}
	m.Name = "hot-spot"
	hot := sim.NewRand(derive(seed, 0x407, 0)).Intn(len(dest))
	for i, d := range dest {
		if i == hot {
			m.Dests[i] = []int{d}
			continue
		}
		m.Dests[i] = []int{hot, d, d, d}
	}
	return m
}

// fabricScenario is a k=8 fat-tree with 1 µs cables driven by 512 B
// Poisson traffic, on one engine or cut pod-aligned across a cluster.
type fabricScenario struct {
	e        *sim.Engine    // set on one engine
	cl       *shard.Cluster // set when cut across shards
	engines  []*sim.Engine
	f        *fabric.Fabric
	ports    []*netfpga.Port
	switches []*switchsim.Switch
	gens     []*gen.Generator
	digests  []uint64 // per host, written only by the host's shard
	noTS     []uint64 // per shard: deliveries without a timestamp
}

func buildFabric(p params, pool *wire.Pool, trs []*tracer, hotspot bool) *fabricScenario {
	s := &fabricScenario{}
	tr := trs[0]
	spec := fabric.Spec{
		K:         8,
		LinkDelay: cableDelay,
		// The overspeed lookup of the repository's fabric experiments:
		// queue overflow at convergence points is the only loss.
		Switch: switchsim.Config{LookupPerPacket: 10 * sim.Nanosecond, LookupPerByte: sim.Picoseconds(150)},
	}
	var err error
	if p.shards > 1 {
		tr.begin(spanSetupCluster)
		s.cl = shard.NewCluster(p.shards)
		tr.next(spanSetupFabric)
		s.f, err = fabric.BuildPartitioned(s.cl.Partition(spec.PodShard(p.shards)), spec)
		tr.end()
		s.engines = s.cl.Engines()
	} else {
		s.e = sim.NewEngine()
		tr.begin(spanSetupFabric)
		s.f, err = fabric.Build(s.e, spec)
		tr.end()
		s.engines = []*sim.Engine{s.e}
	}
	if err != nil {
		panic(err) // the spec is a constant of the benchmark
	}
	f := s.f
	for _, names := range [][]string{f.Edges, f.Aggs, f.Cores} {
		for _, n := range names {
			s.switches = append(s.switches, f.DUT(n))
		}
	}

	s.digests = make([]uint64, len(f.Hosts))
	s.noTS = make([]uint64, len(s.engines))
	s.ports = make([]*netfpga.Port, len(f.Hosts))
	shardOf := make([]int, len(f.Hosts))
	for i := range f.Hosts {
		sh := f.Shard(f.Hosts[i].Name)
		shardOf[i] = sh
		s.ports[i] = f.HostPort(i)
		s.digests[i] = fnvOffset
		d, miss, htr := &s.digests[i], &s.noTS[sh], trs[sh]
		s.ports[i].OnReceive = func(fr *wire.Frame, _ sim.Time, ts timing.Timestamp) {
			htr.begin(spanHostRx)
			if t0, ok := gen.ExtractTimestamp(fr.Data, gen.DefaultTimestampOffset); ok {
				*d = fnvMix(fnvMix(fnvMix(*d, uint64(t0)), uint64(ts.Sub(t0))), uint64(fr.Size))
			} else {
				*miss++
			}
			htr.end()
		}
	}

	slot := wire.SerializationTime(fabricFrameSize, f.Spec.Rate)
	srcs := f.Sources(fabricMatrix(f, p.seed, hotspot), fabricFrameSize)
	tr.begin(spanSetupGen)
	for i, src := range srcs {
		if src == nil {
			continue
		}
		htr := trs[shardOf[i]]
		g, err := gen.New(s.ports[i], gen.Config{
			Source:         timedSource(src, htr),
			Spacing:        timedSpacing(gen.Poisson{Mean: sim.Duration(float64(slot) / fabricLoad)}, htr),
			EmbedTimestamp: true,
			Pool:           pool,
			Seed:           derive(p.seed, 0x9e4, uint64(i)),
		})
		if err != nil {
			panic(err)
		}
		g.Start(0)
		s.gens = append(s.gens, g)
	}
	tr.end()
	return s
}

func (s *fabricScenario) advance(t sim.Time) {
	if s.cl != nil {
		s.cl.RunUntil(t)
	} else {
		s.e.RunUntil(t)
	}
}

func (s *fabricScenario) stop() {
	for _, g := range s.gens {
		g.Stop()
	}
}

func (s *fabricScenario) drain() {
	if s.cl != nil {
		s.cl.Run()
	} else {
		s.e.Run()
	}
}

func (s *fabricScenario) flush() {}

func (s *fabricScenario) sample(x *samples) {
	x.stepFired(s.engines)
	for _, sw := range s.switches {
		for i := 0; i < sw.NumPorts(); i++ {
			x.swDepth = max(x.swDepth, sw.Port(i).QueueDepth())
		}
	}
	for _, p := range s.ports {
		x.txDepth = max(x.txDepth, p.TxQueueDepth())
	}
}

func (s *fabricScenario) finish(r *repResult) {
	f := s.f
	var offered, txDrops uint64
	for _, g := range s.gens {
		offered += g.Sent().Packets + g.Dropped()
		txDrops += g.Dropped()
	}
	r.frames = f.Delivered()
	for _, e := range s.engines {
		r.events += e.Fired()
	}
	digest := uint64(fnvOffset)
	for _, d := range s.digests {
		digest = fnvMix(digest, d)
	}
	r.digest = digest

	var missing uint64
	for _, n := range s.noTS {
		missing += n
	}
	sw := switchCounters(s.switches)
	tiers := f.TierDrops()
	lm := stats.NewLossMap(offered, r.frames, f.Drops())
	r.check("loss_conserved", lm.Conserved())
	r.check("deliveries_timestamped", missing == 0)
	r.check("no_floods", sw.floods == 0)
	r.check("frames_delivered", r.frames > 0)

	r.count("gen.offered_frames", offered)
	r.count("gen.tx_drops", txDrops)
	sw.report(r)
	r.count("fabric.edge_drops", tiers[fabric.TierEdge])
	r.count("fabric.agg_drops", tiers[fabric.TierAgg])
	r.count("fabric.core_drops", tiers[fabric.TierCore])
}

func (s *fabricScenario) close() {
	if s.cl != nil {
		s.cl.Close()
	}
}

// swCounters sums the public counters of a set of switches.
type swCounters struct {
	forwarded, sprays, floods, queueDrops, lookupDrops uint64
}

func switchCounters(sws []*switchsim.Switch) swCounters {
	var c swCounters
	for _, sw := range sws {
		c.forwarded += sw.Forwarded().Packets
		c.sprays += sw.Sprays()
		c.floods += sw.Floods()
		c.lookupDrops += sw.LookupDrops()
		for i := 0; i < sw.NumPorts(); i++ {
			c.queueDrops += sw.Port(i).Drops()
		}
	}
	return c
}

func (c swCounters) report(r *repResult) {
	r.count("switchsim.forwarded", c.forwarded)
	r.count("switchsim.sprays", c.sprays)
	r.count("switchsim.floods", c.floods)
	r.count("switchsim.queue_drops", c.queueDrops)
	r.count("switchsim.lookup_drops", c.lookupDrops)
}

// captureFrameSize is the capture workloads' frame size: the 100G
// worst case of 148.8 Mpps.
const captureFrameSize = 64

// captureFlows is the flow count of capture-flows.
const captureFlows = 4096

// captureQueues is the RSS queue count of capture-flows.
const captureQueues = 8

// captureDUT is a 2-port 100G store-and-forward switch whose lookup
// stays under the 64 B back-to-back slot (5.2 vs 6.72 ns), so the
// line-rate stream crosses it without loss.
func captureDUT() switchsim.Config {
	return switchsim.Config{
		Ports:           2,
		PortRates:       []wire.Rate{wire.Rate100G, wire.Rate100G},
		LookupPerPacket: 2 * sim.Nanosecond,
		LookupPerByte:   sim.Picoseconds(50),
	}
}

// captureSink is the destination MAC every capture frame carries; the
// DUT forwards it to its capture port.
var captureSink = packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x02}

// flowFrames derives the capture flow set from the seed: n UDP flows
// with random addresses and ports, cycled in a random order.
func flowFrames(seed uint64, n int) []*wire.Frame {
	rng := sim.NewRand(derive(seed, 0xf10, 0))
	frames := make([]*wire.Frame, n)
	for _, i := range rng.Perm(n) {
		a, b := rng.Uint64(), rng.Uint64()
		spec := packet.UDPSpec{
			SrcMAC:    packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x01},
			DstMAC:    captureSink,
			SrcIP:     packet.IP4{10, byte(a), byte(a >> 8), byte(a >> 16)},
			DstIP:     packet.IP4{10, byte(b), byte(b >> 8), byte(b >> 16)},
			SrcPort:   uint16(1024 + a>>32%60000),
			DstPort:   uint16(1024 + b>>32%60000),
			FrameSize: captureFrameSize,
		}
		frames[i] = wire.NewFrame(spec.Build())
	}
	return frames
}

// captureScenario is the 100G tester rig: a generator port, a 2-port
// store-and-forward DUT and a capture port with idealised host cores.
// With flows set it is capture-flows (timestamped flows, RSS queues,
// merge, flowstats); otherwise trains-100g (one flow, one queue, a
// digest sink).
type captureScenario struct {
	e     *sim.Engine
	t     *topo.Topology
	m     *mon.Monitor
	merge *mon.Merge // nil without flows
	ft    *flowstats.FlowTable
	g     *gen.Generator
	tx    *netfpga.Port
	dut   *switchsim.Switch

	digest  uint64
	records uint64
	noTS    uint64
}

func buildCapture(p params, pool *wire.Pool, trs []*tracer, flows bool) *captureScenario {
	tr := trs[0]
	s := &captureScenario{e: sim.NewEngine(), digest: fnvOffset}
	tr.begin(spanSetupFabric)
	t, err := topo.New().
		Tester("tx", netfpga.Config{Ports: 1, Rate: wire.Rate100G}).
		Tester("rx", netfpga.Config{Ports: 1, Rate: wire.Rate100G}).
		DUT("sw", captureDUT()).
		Link("tx:0", "sw:0").
		Link("sw:1", "rx:0").
		Build(s.e)
	tr.end()
	if err != nil {
		panic(err) // the rig is a constant of the benchmark
	}
	s.t, s.tx, s.dut = t, t.Port("tx:0"), t.DUT("sw")
	s.dut.Learn(captureSink, 1)

	var frames []*wire.Frame
	if flows {
		frames = flowFrames(p.seed, captureFlows)
	} else {
		frames = flowFrames(p.seed, 1)
	}
	ideal := mon.QueueConfig{HostPerPacket: sim.Picosecond, HostPerByte: -1}
	cfg := mon.Config{SnapLen: 64, HashBytes: packet.HeaderDigestBytes}
	tr.begin(spanSetupMon)
	if flows {
		cfg.Steer = mon.SteerHash
		cfg.Queues = make([]mon.QueueConfig, captureQueues)
		for i := range cfg.Queues {
			cfg.Queues[i] = ideal
		}
		s.m, err = mon.New(t.Port("rx:0"), cfg)
		if err != nil {
			panic(err)
		}
		s.ft = flowstats.NewFlowTable(2 * captureFlows)
		ss := flowstats.NewSpaceSaving(64)
		cm := flowstats.NewCountMin(4, 1<<12)
		s.merge = mon.NewMerge(s.m, func(rec mon.Record) {
			tr.begin(spanMonSink)
			s.records++
			s.digest = fnvMix(fnvMix(s.digest, uint64(rec.TS)), rec.Hash)
			smp := flowstats.Sample{Digest: rec.Hash, RxTS: rec.TS, Wire: rec.WireSize, Trace: rec.Trace}
			if tx, ok := gen.ExtractTimestamp(rec.Data, gen.DefaultTimestampOffset); ok {
				smp.TxTS, smp.HasTx = tx, true
			} else {
				s.noTS++
			}
			tr.begin(spanFlowObserve)
			s.ft.Observe(smp)
			tr.next(spanFlowSketch)
			ss.Add(rec.Hash, 1)
			cm.Add(rec.Hash, 1)
			tr.end()
			tr.end()
		})
	} else {
		ideal.RingSize = 1 << 12
		cfg.Queues = []mon.QueueConfig{ideal}
		cfg.RecycleRecords = true
		cfg.Sink = func(rec mon.Record) {
			tr.begin(spanMonSink)
			s.records++
			s.digest = fnvMix(fnvMix(s.digest, uint64(rec.TS)), rec.Hash)
			tr.end()
		}
		s.m, err = mon.New(t.Port("rx:0"), cfg)
		if err != nil {
			panic(err)
		}
	}
	tr.end()
	if tr != nil {
		wrapRx(t.Port("rx:0"), tr)
	}

	tr.begin(spanSetupGen)
	s.g, err = gen.New(s.tx, gen.Config{
		Source:         timedSource(&gen.SliceSource{Frames: frames, Loop: true}, tr),
		Spacing:        timedSpacing(gen.CBRForLoad(captureFrameSize, wire.Rate100G, 1.0), tr),
		EmbedTimestamp: flows,
		Pool:           pool,
		Seed:           derive(p.seed, 0x9e4, 0),
		MaxTrain:       p.trainCap,
		Until:          sim.Time(p.length),
	})
	tr.end()
	if err != nil {
		panic(err)
	}
	s.g.Start(0)
	return s
}

// wrapRx times the monitor's receive hooks, which it installed on the
// capture port.
func wrapRx(p *netfpga.Port, tr *tracer) {
	rx, rxTrain := p.OnReceive, p.OnReceiveTrain
	p.OnReceive = func(f *wire.Frame, at sim.Time, ts timing.Timestamp) {
		tr.begin(spanMonRx)
		rx(f, at, ts)
		tr.end()
	}
	if rxTrain != nil {
		p.OnReceiveTrain = func(t *wire.Train, at sim.Time) {
			tr.begin(spanMonRx)
			rxTrain(t, at)
			tr.end()
		}
	}
}

func (s *captureScenario) advance(t sim.Time) { s.e.RunUntil(t) }
func (s *captureScenario) stop()              { s.g.Stop() }
func (s *captureScenario) drain()             { s.e.Run() }

func (s *captureScenario) flush() {
	if s.merge != nil {
		s.merge.Flush()
	}
}

func (s *captureScenario) sample(x *samples) {
	x.stepFired([]*sim.Engine{s.e})
	for i := 0; i < s.dut.NumPorts(); i++ {
		x.swDepth = max(x.swDepth, s.dut.Port(i).QueueDepth())
	}
	x.txDepth = max(x.txDepth, s.tx.TxQueueDepth())
	x.ringDepth = max(x.ringDepth, s.m.RingDepth())
	if s.merge != nil {
		x.mergeDepth = max(x.mergeDepth, s.merge.Pending())
	}
}

func (s *captureScenario) finish(r *repResult) {
	offered := s.g.Sent().Packets + s.g.Dropped()
	r.frames = s.records
	r.events = s.e.Fired()
	r.digest = s.digest

	delivered := s.m.Delivered().Packets
	lm := stats.NewLossMap(offered, s.m.Seen().Packets, s.t.Drops())
	r.check("loss_conserved", lm.Conserved())
	r.check("frames_delivered", s.records > 0)
	r.check("sink_matches_monitor", s.records == delivered)
	r.check("capture_lossless", s.m.Seen().Packets == offered && s.m.RingDrops() == 0)
	pq := stats.NewPerQueue(s.m.NumQueues())
	for q := 0; q < s.m.NumQueues(); q++ {
		qs := s.m.QueueStats(q)
		pq.Set(q, qs.Seen.Packets, qs.Delivered.Packets, qs.RingDrops)
	}
	if s.merge != nil {
		var flowPkts uint64
		s.ft.Flows(func(f *flowstats.Flow) { flowPkts += f.Packets })
		r.check("merge_in_order", s.merge.OrderViolations() == 0)
		r.check("merge_drained", s.merge.Pending() == 0)
		r.check("flowstats_matches_merge", flowPkts+s.ft.Overflow() == s.merge.Emitted() && s.merge.Emitted() == delivered)
		r.check("records_timestamped", s.noTS == 0)
		r.count("mon.merge_order_violations", s.merge.OrderViolations())
		r.count("flowstats.flows", uint64(s.ft.Len()))
		r.count("flowstats.overflow", s.ft.Overflow())
	}

	r.count("gen.offered_frames", offered)
	r.count("gen.tx_drops", s.g.Dropped())
	r.count("mon.records", delivered)
	r.count("mon.ring_drops", s.m.RingDrops())
	r.value("mon.queue_imbalance", pq.Imbalance())
	sw := switchCounters([]*switchsim.Switch{s.dut})
	r.check("no_floods", sw.floods == 0)
	sw.report(r)
}

func (s *captureScenario) close() {}
