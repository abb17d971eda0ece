package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"osnt/internal/sim"
	"osnt/internal/wire"
)

// short returns the workload's standard parameters at a test-sized
// virtual length.
func short(t *testing.T, name string, seed uint64) (*workload, params) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	p := w.std
	p.seed = seed
	if p.shards > 0 {
		p.length = 40 * sim.Microsecond
	} else {
		p.length = 200 * sim.Microsecond
	}
	return w, p
}

// once runs one repetition, traced or not, and fails the test on any
// failed output check.
func once(t *testing.T, w *workload, p params, traced bool) repResult {
	t.Helper()
	trs := make([]*tracer, max(p.shards, 1))
	if traced {
		base := time.Now()
		for i := range trs {
			trs[i] = newTracer(base)
		}
	}
	r := runRep(w, p, wire.NewPool(), trs)
	for _, c := range r.checks {
		if !c.ok {
			t.Errorf("%s seed %d traced=%v: check %s failed", w.name, p.seed, traced, c.name)
		}
	}
	if r.frames == 0 {
		t.Fatalf("%s: no frames delivered", w.name)
	}
	return r
}

// Sharding repartitions the event loop, never the simulation: the
// hot-spot fabric gives the same stream digest on one engine as on two.
func TestHotspotDigestSameAtOneAndTwoShards(t *testing.T) {
	w, p := short(t, "fabric-hotspot-2shard", 7)
	two := once(t, w, p, false)
	p.shards = 1
	one := once(t, w, p, false)
	if one.digest != two.digest || one.frames != two.frames {
		t.Fatalf("1 shard: digest %016x, %d frames; 2 shards: digest %016x, %d frames",
			one.digest, one.frames, two.digest, two.frames)
	}
	if two.counters["switchsim.queue_drops"] == 0 {
		t.Fatal("the hot spot dropped nothing: the workload no longer congests the hot edge")
	}
}

// Trains coalesce bookkeeping only: trains-100g gives the same digest
// per frame (cap 1) as with 64-frame trains, in far fewer events.
func TestTrainsDigestSameAtCapOneAndSixtyFour(t *testing.T) {
	w, p := short(t, "trains-100g", 7)
	batched := once(t, w, p, false)
	p.trainCap = 1
	single := once(t, w, p, false)
	if single.digest != batched.digest || single.frames != batched.frames {
		t.Fatalf("cap 1: digest %016x, %d frames; cap 64: digest %016x, %d frames",
			single.digest, single.frames, batched.digest, batched.frames)
	}
	if 10*batched.events > single.events {
		t.Fatalf("cap 64 fired %d events against %d at cap 1: trains no longer form", batched.events, single.events)
	}
}

// Tracing changes the cost only: every workload's traced repetition
// gives the digest of its untraced one, and its spans cover the run.
func TestTracedDigestSameAsUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w, p := short(t, w.name, 3)
			plain := once(t, w, p, false)
			traced := once(t, w, p, true)
			if plain.digest != traced.digest || plain.frames != traced.frames {
				t.Fatalf("untraced: digest %016x, %d frames; traced: digest %016x, %d frames",
					plain.digest, plain.frames, traced.digest, traced.frames)
			}
			run := traced.spans[spanRun]
			if run.count != 1 || run.self*10 > run.total {
				t.Fatalf("run span %+v: more than a tenth of the timed region is outside every span", run)
			}
		})
	}
}

// The seed is the only source of randomness: the same seed repeats the
// digest, another seed changes it.
func TestSeedDeterminesTraffic(t *testing.T) {
	w, p := short(t, "fabric-perm", 11)
	a := once(t, w, p, false)
	b := once(t, w, p, false)
	p.seed = 12
	c := once(t, w, p, false)
	if a.digest != b.digest {
		t.Fatalf("seed 11 gave %016x then %016x", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Fatalf("seeds 11 and 12 gave the same digest %016x", a.digest)
	}
}

// BENCHMARK.json and the program agree on the workload names and on the
// name and unit of every metric.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		if sw.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, sw.Name, workloads[i].name)
		}
	}

	w, p := short(t, "capture-flows", 1)
	var m measurement
	m.tracers = []*tracer{newTracer(time.Now())}
	m.untraced = append(m.untraced, once(t, w, p, false))
	m.traced = append(m.traced, runRep(w, p, wire.NewPool(), m.tracers))
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		got    map[string]metric
	}{{spec.EndToEnd, endToEnd(m)}, {spec.PerLayer, perLayer(m)}} {
		if len(c.listed) != len(c.got) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.listed), len(c.got))
		}
		for _, l := range c.listed {
			g, ok := c.got[l.Name]
			if !ok || g.Unit != l.Unit {
				t.Errorf("metric %s (%s): program reports %+v, present=%v", l.Name, l.Unit, g, ok)
			}
		}
	}
}
