// Command perfbench is the simulator's benchmark: it builds one of four
// named workloads from the repository's layers (fabric, topo, gen, mon,
// flowstats, shard), runs it repeatedly for a fixed wall-clock budget,
// checks the simulated output of every repetition, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fabric-perm --seed 1 --seconds 15 --trace 0
//
// Each run also writes a run record (workload, seed, length, digest,
// every metric, machine fingerprint) and, when traced, its span log
// under -out. See perfbench/README.md for the workloads, the metrics and
// the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minReps is the fewest repetitions of each kind a run makes, whatever
// its budget.
const minReps = 3

// setupBuilds is how many times each repetition builds its scenario.
// Set-up is short, so timing it several times per repetition gives its
// median many more samples at little cost.
const setupBuilds = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (fabric-perm, fabric-hotspot-2shard, capture-flows, trains-100g)")
	seed := fs.Uint64("seed", 1, "workload seed: traffic matrix, generator seeds and flow set derive from it")
	seconds := fs.Float64("seconds", 10, "wall-clock measuring budget")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics from untraced repetitions; 1: per-layer metrics from traced ones")
	out := fs.String("out", ".bench_runs", "directory for the run record and span log")
	commit := fs.String("commit", "unknown", "source revision, recorded in the machine fingerprint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || (*traceMode != 0 && *traceMode != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload <name> --seed <n> --seconds <s> --trace <0|1> (%v)\n", err)
		return 2
	}
	p := w.std
	p.seed = *seed

	res := measure(w, p, time.Duration(*seconds*float64(time.Second)), *traceMode == 1)
	rec := newRecord(w, p, *traceMode == 1, res, *commit)
	printReport(stdout, rec, res)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, p.seed, *traceMode))
	if err := rec.write(base + ".json"); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *traceMode == 1 {
		if err := writeSpans(base+".spans.jsonl", res.tracers); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// repResult is what one repetition measured and checked.
type repResult struct {
	traced              bool
	setupNs             []float64 // one per build
	wallNs              int64
	frames, events      uint64
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
	poolGets, poolPuts  uint64
	poolFresh           uint64
	digest              uint64
	checks              []check
	counters            map[string]float64
	spans               [numSpanIDs]spanTotals // this repetition's spans, all tracers
	samples             samples
}

// check is one output check of one repetition.
type check struct {
	name string
	ok   bool
}

func (r *repResult) check(name string, ok bool) { r.checks = append(r.checks, check{name, ok}) }

func (r *repResult) count(name string, v uint64) { r.value(name, float64(v)) }

func (r *repResult) value(name string, v float64) {
	if r.counters == nil {
		r.counters = make(map[string]float64)
	}
	r.counters[name] = v
}

// addSpans adds sign × src into dst, kind by kind.
func addSpans(dst, src *[numSpanIDs]spanTotals, sign int64) {
	for i, s := range src {
		dst[i].count += sign * s.count
		dst[i].total += sign * s.total
		dst[i].self += sign * s.self
	}
}

// totals sums the span totals of every tracer.
func totals(trs []*tracer) [numSpanIDs]spanTotals {
	var out [numSpanIDs]spanTotals
	for _, t := range trs {
		if t != nil {
			addSpans(&out, &t.totals, 1)
		}
	}
	return out
}

// runRep builds the scenario, runs its timed region and checks it. trs
// holds one tracer per shard, all nil for an untraced repetition.
func runRep(w *workload, p params, pool *wire.Pool, trs []*tracer) repResult {
	tr := trs[0]
	r := repResult{traced: tr != nil}
	before := totals(trs)

	// Set-up is timed setupBuilds times per repetition, each after a
	// forced GC, so every build starts from a freshly collected heap and
	// none pays for earlier garbage. The last scenario built is the one
	// that runs, and the only one traced.
	var sc scenario
	for i := 0; i < setupBuilds; i++ {
		btrs := make([]*tracer, len(trs))
		if i == setupBuilds-1 {
			btrs = trs
		}
		runtime.GC()
		t0 := time.Now()
		btrs[0].begin(spanSetup)
		sc = w.build(p, pool, btrs)
		btrs[0].end()
		r.setupNs = append(r.setupNs, float64(time.Since(t0)))
		if i < setupBuilds-1 {
			sc.close()
		}
	}
	defer sc.close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0, p0, f0 := pool.Stats()
	end := sim.Time(p.length)
	step := spanSlice
	if p.shards > 1 {
		step = spanWindow
	}

	tr.begin(spanRun)
	start := time.Now()
	if tr != nil {
		for t := sim.Epoch; t < end; {
			t = min(t.Add(traceStep), end)
			tr.begin(step)
			sc.advance(t)
			r.samples.windowNs = append(r.samples.windowNs, float64(tr.end()))
			tr.begin(spanSample)
			sc.sample(&r.samples)
			tr.end()
		}
	} else {
		sc.advance(end)
	}
	sc.stop()
	tr.begin(spanDrain)
	sc.drain()
	tr.next(spanFlush)
	sc.flush()
	tr.end()
	r.wallNs = int64(time.Since(start))
	tr.end()

	runtime.ReadMemStats(&m1)
	g1, p1, f1 := pool.Stats()
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	r.poolGets, r.poolPuts, r.poolFresh = g1-g0, p1-p0, f1-f0

	sc.finish(&r)
	r.spans = totals(trs)
	addSpans(&r.spans, &before, -1)
	return r
}

// measurement is everything a run measured.
type measurement struct {
	untraced, traced []repResult
	tracers          []*tracer
	peakRSSMB        float64
}

// measure repeats the workload until the budget is spent (but at least
// minReps times per kind). A traced run alternates untraced and traced
// repetitions, so the tracing overhead compares like with like.
func measure(w *workload, p params, budget time.Duration, traced bool) measurement {
	var m measurement
	pool := wire.NewPool()
	shards := max(p.shards, 1)
	untracedTrs := make([]*tracer, shards)
	if traced {
		base := time.Now()
		m.tracers = make([]*tracer, shards)
		for i := range m.tracers {
			m.tracers[i] = newTracer(base)
		}
	}
	expected, haveExpected := expectedDigest(w.name, p.seed)
	var first uint64
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		enough := len(m.untraced) >= minReps && (!traced || len(m.traced) >= minReps)
		if enough && time.Since(start)+last > budget {
			break
		}
		t := time.Now()
		trs := untracedTrs
		if traced && i%2 == 1 {
			trs = m.tracers
		}
		r := runRep(w, p, pool, trs)
		if i == 0 {
			first = r.digest
		}
		r.check("digest_repeats", r.digest == first)
		if haveExpected {
			r.check("digest_expected", r.digest == expected)
		}
		if r.traced {
			m.traced = append(m.traced, r)
		} else {
			m.untraced = append(m.untraced, r)
		}
		last = time.Since(t)
	}
	m.peakRSSMB = peakRSSMB()
	return m
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return stats.Quantiles(xs, 50)[0] }

// perRep maps each repetition through f.
func perRep(reps []repResult, f func(r *repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i := range reps {
		out[i] = f(&reps[i])
	}
	return out
}

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func nsPerFrame(r *repResult) float64 { return ratio(float64(r.wallNs), float64(r.frames)) }

// setupSamples returns every set-up time of the repetitions, in seconds.
func setupSamples(reps []repResult) []float64 {
	var out []float64
	for _, r := range reps {
		for _, ns := range r.setupNs {
			out = append(out, ns/1e9)
		}
	}
	return out
}

// metric is one named result with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics from untraced repetitions.
func endToEnd(m measurement) map[string]metric {
	u := m.untraced
	return map[string]metric{
		"host_ns_per_frame": {median(perRep(u, nsPerFrame)), "ns"},
		"setup_s":           {median(setupSamples(u)), "s"},
		"allocs_per_frame": {median(perRep(u, func(r *repResult) float64 {
			return ratio(float64(r.mallocs), float64(r.frames))
		})), "count"},
		"alloc_bytes_per_frame": {median(perRep(u, func(r *repResult) float64 {
			return ratio(float64(r.allocBytes), float64(r.frames))
		})), "B"},
		"peak_rss_mb": {m.peakRSSMB, "MB"},
	}
}

// perLayer computes the per-layer metrics: counters and samples from the
// traced repetitions, self times from their spans, and the tracing
// overhead against the untraced repetitions of the same run.
func perLayer(m measurement) map[string]metric {
	t, u := m.traced, m.untraced
	last := &t[len(t)-1]
	var frames float64
	var spans [numSpanIDs]spanTotals
	var pending, windowNs []float64
	var smp samples
	for i := range t {
		frames += float64(t[i].frames)
		addSpans(&spans, &t[i].spans, 1)
		x := &t[i].samples
		pending = append(pending, x.pending...)
		windowNs = append(windowNs, x.windowNs...)
		smp.idle += x.idle
		smp.firedSum += x.firedSum
		smp.busiestSum += x.busiestSum
		smp.swDepth = max(smp.swDepth, x.swDepth)
		smp.txDepth = max(smp.txDepth, x.txDepth)
		smp.ringDepth = max(smp.ringDepth, x.ringDepth)
		smp.mergeDepth = max(smp.mergeDepth, x.mergeDepth)
	}
	self := func(ids ...spanID) float64 {
		var ns int64
		for _, id := range ids {
			ns += spans[id].self
		}
		return ratio(float64(ns), frames)
	}
	spanMedianS := func(id spanID) float64 {
		return median(perRep(t, func(r *repResult) float64 { return float64(r.spans[id].total) / 1e9 }))
	}
	steps := float64(len(windowNs))
	shards := float64(len(m.tracers))
	c := func(name string) float64 { return last.counters[name] }
	records := c("mon.records")
	uFrame := func(f func(r *repResult) uint64) float64 {
		return median(perRep(u, func(r *repResult) float64 { return ratio(float64(f(r)), float64(r.frames)) }))
	}
	untracedNs := median(perRep(u, nsPerFrame))

	return map[string]metric{
		"sim.events_per_frame":       {ratio(float64(last.events), float64(last.frames)), "count"},
		"sim.ns_per_event":           {median(perRep(u, func(r *repResult) float64 { return ratio(float64(r.wallNs), float64(r.events)) })), "ns"},
		"sim.pending_p50":            {median(pending), "count"},
		"sim.pending_max":            {stats.Quantiles(pending, 100)[0], "count"},
		"sim.loop_self_ns_per_frame": {self(spanSlice, spanWindow, spanDrain), "ns"},
		"sim.drain_s":                {spanMedianS(spanDrain), "s"},

		"shard.windows":           {steps / float64(len(t)), "count"},
		"shard.idle_windows":      {float64(smp.idle) / float64(len(t)), "count"},
		"shard.events_per_window": {ratio(float64(smp.firedSum), steps), "count"},
		"shard.event_imbalance":   {ratio(float64(smp.busiestSum), float64(smp.firedSum)/shards), "ratio"},
		"shard.window_ns_p50":     {median(windowNs), "ns"},
		"shard.window_ns_p99":     {stats.Quantiles(windowNs, 99)[0], "ns"},

		"wire.pool_gets_per_frame":       {uFrame(func(r *repResult) uint64 { return r.poolGets }), "count"},
		"wire.pool_fresh_per_frame":      {uFrame(func(r *repResult) uint64 { return r.poolFresh }), "count"},
		"wire.pool_unreleased_per_frame": {uFrame(func(r *repResult) uint64 { return r.poolGets - r.poolPuts }), "count"},

		"gen.offered_frames":       {c("gen.offered_frames"), "count"},
		"gen.tx_drops":             {c("gen.tx_drops"), "count"},
		"gen.source_ns_per_frame":  {self(spanGenSource), "ns"},
		"gen.spacing_ns_per_frame": {self(spanGenSpacing), "ns"},

		"switchsim.hops_per_frame":   {ratio(c("switchsim.forwarded"), float64(last.frames)), "count"},
		"switchsim.sprays_per_frame": {ratio(c("switchsim.sprays"), float64(last.frames)), "count"},
		"switchsim.floods":           {c("switchsim.floods"), "count"},
		"switchsim.queue_drops":      {c("switchsim.queue_drops"), "count"},
		"switchsim.lookup_drops":     {c("switchsim.lookup_drops"), "count"},
		"switchsim.queue_depth_max":  {float64(smp.swDepth), "count"},
		"fabric.edge_drops":          {c("fabric.edge_drops"), "count"},
		"fabric.agg_drops":           {c("fabric.agg_drops"), "count"},
		"fabric.core_drops":          {c("fabric.core_drops"), "count"},
		"fabric.build_s":             {spanMedianS(spanSetupFabric), "s"},

		"netfpga.tx_queue_depth_max":       {float64(smp.txDepth), "count"},
		"netfpga.rx_callback_ns_per_frame": {self(spanHostRx, spanMonRx), "ns"},

		"mon.records":                       {records, "count"},
		"mon.ring_drops":                    {c("mon.ring_drops"), "count"},
		"mon.ring_depth_max":                {float64(smp.ringDepth), "count"},
		"mon.queue_imbalance":               {c("mon.queue_imbalance"), "ratio"},
		"mon.merge_pending_max":             {float64(smp.mergeDepth), "count"},
		"mon.merge_order_violations":        {c("mon.merge_order_violations"), "count"},
		"mon.merge_sink_self_ns_per_record": {self(spanMonSink), "ns"},

		"flowstats.observe_ns_per_record": {self(spanFlowObserve), "ns"},
		"flowstats.sketch_ns_per_record":  {self(spanFlowSketch), "ns"},
		"flowstats.flows":                 {c("flowstats.flows"), "count"},
		"flowstats.overflow":              {c("flowstats.overflow"), "count"},

		"go.gc_cycles":   {median(perRep(u, func(r *repResult) float64 { return float64(r.gcCycles) })), "count"},
		"go.gc_pause_ms": {median(perRep(u, func(r *repResult) float64 { return float64(r.gcPauseNs) / 1e6 })), "ms"},

		"trace.overhead_frac":     {ratio(median(perRep(t, nsPerFrame)), untracedNs) - 1, "ratio"},
		"trace.unattributed_frac": {ratio(float64(spans[spanRun].self), float64(spans[spanRun].total)), "ratio"},
		"failed_frac":             {failedFrac(m), "ratio"},
	}
}

// failedFrac is failed output checks over checks attempted, all
// repetitions of the run.
func failedFrac(m measurement) float64 {
	attempted, failed := checkCounts(m)
	return ratio(float64(failed), float64(attempted))
}

// checkCounts totals the output checks of every repetition, including
// one per repetition that its digest matches the run's first digest and
// the committed expected digest where one exists.
func checkCounts(m measurement) (attempted, failed int) {
	for _, reps := range [][]repResult{m.untraced, m.traced} {
		for _, r := range reps {
			for _, c := range r.checks {
				attempted++
				if !c.ok {
					failed++
				}
			}
		}
	}
	return attempted, failed
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			// A figure that does not parse reads 0, like a missing file.
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
