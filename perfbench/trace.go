package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"osnt/internal/gen"
	"osnt/internal/sim"
	"osnt/internal/wire"
)

// spanID names one kind of span. The set is fixed: every span the
// benchmark records wraps one of its own calls into a layer's public API
// or one of the callbacks it hands to a layer.
type spanID uint8

const (
	spanSetup        spanID = iota // everything before the first event
	spanSetupCluster               // shard.NewCluster
	spanSetupFabric                // fabric.Build / BuildPartitioned / topo.Builder.Build
	spanSetupGen                   // every gen.New of the scenario
	spanSetupMon                   // mon.New, mon.NewMerge and the flowstats constructors
	spanRun                        // the timed region: first event through drain and flush
	spanSlice                      // one sim.Engine.RunUntil slice
	spanWindow                     // one shard.Cluster.RunUntil lookahead window
	spanDrain                      // sim.Engine.Run / shard.Cluster.Run after the stop
	spanFlush                      // mon.Merge.Flush
	spanSample                     // the benchmark's own slice-boundary sampling
	spanHostRx                     // a fabric host's OnReceive callback
	spanMonRx                      // the capture monitor's OnReceive/OnReceiveTrain hook
	spanGenSource                  // the Source handed to gen.New
	spanGenSpacing                 // the Spacing handed to gen.New
	spanMonSink                    // the record sink behind the merge (or the capture queue)
	spanFlowObserve                // flowstats.FlowTable.Observe
	spanFlowSketch                 // flowstats.CountMin.Add + SpaceSaving.Add
	numSpanIDs
)

var spanNames = [numSpanIDs]string{
	"setup", "setup.cluster", "setup.fabric", "setup.gen", "setup.mon",
	"run", "sim.slice", "shard.window", "sim.drain", "mon.flush", "trace.sample",
	"netfpga.host_rx", "mon.rx", "gen.source", "gen.spacing", "mon.sink",
	"flowstats.observe", "flowstats.sketch",
}

// span is one recorded interval. Times are nanoseconds since the
// tracer's base instant; parent indexes the tracer's span buffer (-1 for
// a root, or when the parent did not fit in the buffer).
type span struct {
	start, end int64
	parent     int32
	id         spanID
}

// openSpan is one entry of the stack of spans still running.
type openSpan struct {
	id    spanID
	start int64
	child int64 // wall time covered by finished children
	buf   int32 // index in the buffer, -1 if not stored
}

// spanTotals aggregates every finished span of one kind.
type spanTotals struct {
	count, total, self int64
}

// tracer records nested spans on one goroutine. The benchmark gives
// each shard its own tracer, so no tracer is shared between goroutines.
// Self time (a span minus the time its children cover) is folded into
// per-kind totals as each span ends; the first maxSpans spans are also
// kept in memory and written out when the run ends. A nil *tracer
// records nothing, which is how untraced repetitions run.
type tracer struct {
	base   time.Time
	stack  []openSpan
	totals [numSpanIDs]spanTotals
	buf    []span
}

// maxSpans bounds the spans kept in memory per tracer. The totals cover
// every span; only the written-out span log is truncated.
const maxSpans = 1 << 14

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, stack: make([]openSpan, 0, 16), buf: make([]span, 0, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span of the given kind as a child of the innermost open
// span.
func (t *tracer) begin(id spanID) {
	if t == nil {
		return
	}
	t.open(id, t.now())
}

// end closes the innermost open span and returns its wall time.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	return t.close(t.now())
}

// next closes the innermost open span and opens a sibling of the given
// kind at the same instant, so back-to-back calls cost one clock read.
func (t *tracer) next(id spanID) {
	if t == nil {
		return
	}
	now := t.now()
	t.close(now)
	t.open(id, now)
}

func (t *tracer) open(id spanID, at int64) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].buf
	}
	idx := int32(-1)
	if len(t.buf) < cap(t.buf) {
		idx = int32(len(t.buf))
		t.buf = append(t.buf, span{start: at, parent: parent, id: id})
	}
	t.stack = append(t.stack, openSpan{id: id, start: at, buf: idx})
}

func (t *tracer) close(at int64) int64 {
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	d := at - s.start
	tot := &t.totals[s.id]
	tot.count++
	tot.total += d
	tot.self += d - s.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	if s.buf >= 0 {
		t.buf[s.buf].end = at
	}
	return d
}

// writeSpans writes the stored spans as one JSON object per line.
// shard tags the tracer the spans came from.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for shard, t := range tracers {
		for i, s := range t.buf {
			fmt.Fprintf(w, "{\"shard\":%d,\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n",
				shard, i, spanNames[s.id], s.start, s.end, s.parent)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSource times every frame the generator pulls from its Source.
type tracedSource struct {
	src *gen.SliceSource
	tr  *tracer
}

// timedSource hands the generator src itself in an untraced run, and a
// timing wrapper in a traced one.
func timedSource(src *gen.SliceSource, tr *tracer) gen.Source {
	if tr == nil {
		return src
	}
	return &tracedSource{src: src, tr: tr}
}

func (s *tracedSource) Next() *wire.Frame {
	s.tr.begin(spanGenSource)
	f := s.src.Next()
	s.tr.end()
	return f
}

func (s *tracedSource) NextInto(f *wire.Frame) bool {
	s.tr.begin(spanGenSource)
	ok := s.src.NextInto(f)
	s.tr.end()
	return ok
}

// tracedSpacing times every inter-frame gap the generator draws.
type tracedSpacing struct {
	sp gen.Spacing
	tr *tracer
}

// timedSpacing hands the generator sp itself in an untraced run, and a
// timing wrapper in a traced one.
func timedSpacing(sp gen.Spacing, tr *tracer) gen.Spacing {
	if tr == nil {
		return sp
	}
	return &tracedSpacing{sp: sp, tr: tr}
}

func (s *tracedSpacing) Next(r *sim.Rand) sim.Duration {
	s.tr.begin(spanGenSpacing)
	d := s.sp.Next(r)
	s.tr.end()
	return d
}
