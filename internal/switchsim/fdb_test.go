package switchsim

import (
	"testing"

	"osnt/internal/packet"
	"osnt/internal/sim"
)

// The open-addressed station table agrees with a map through growth,
// relearning and lookups of absent stations, including the all-zero MAC.
func TestFDBMatchesMap(t *testing.T) {
	var tbl fdb
	want := map[packet.MAC]int{}
	r := sim.NewRand(5)
	mac := func() packet.MAC {
		// A small key space forces relearning and probe collisions.
		v := r.Intn(3000)
		return packet.MAC{0, 0, 0, 0, byte(v >> 8), byte(v)}
	}
	for i := 0; i < 5000; i++ {
		m, dest := mac(), r.Intn(64)-8
		tbl.set(m, dest)
		want[m] = dest
		q := mac()
		got, ok := tbl.get(q)
		if w, wok := want[q]; ok != wok || got != w {
			t.Fatalf("step %d: get(%v) = %d, %v; want %d, %v", i, q, got, ok, w, wok)
		}
	}
	if tbl.n != len(want) || 2*tbl.n > len(tbl.slots) {
		t.Fatalf("%d stations in %d slots, want %d at load ≤ 1/2", tbl.n, len(tbl.slots), len(want))
	}
	seen := 0
	tbl.each(func(m packet.MAC, dest int) {
		seen++
		if want[m] != dest {
			t.Fatalf("each: %v → %d, want %d", m, dest, want[m])
		}
	})
	if seen != len(want) {
		t.Fatalf("each visited %d stations, want %d", seen, len(want))
	}
}
