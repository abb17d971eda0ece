package switchsim

import "osnt/internal/packet"

// fdb is the station table: an open-addressed hash table with linear
// probing, keyed by the station MAC as a 48-bit integer. A forwarding
// decision is one multiply, one shift and (at the table's load of at most
// one half) usually a single 16-byte slot read, where a Go map keyed by
// the 6-byte array hashes through the runtime and scatters its buckets.
// Entries are never deleted: a station that moves is relearned in place.
type fdb struct {
	slots []fdbSlot // power-of-two length; a zero key marks an empty slot
	n     int       // occupied slots
}

// fdbSlot is one station: its key (see fdbKey) and its destination — an
// egress port, or -g for ECMP group g.
type fdbSlot struct {
	key  uint64
	dest int
}

// fdbKey packs mac into a key with bit 63 set, so no MAC maps to the
// empty-slot key 0.
func fdbKey(mac packet.MAC) uint64 {
	return 1<<63 | uint64(mac[0])<<40 | uint64(mac[1])<<32 | uint64(mac[2])<<24 |
		uint64(mac[3])<<16 | uint64(mac[4])<<8 | uint64(mac[5])
}

// home returns key's first probe position: Fibonacci hashing, which
// spreads the sequential MACs synthesized topologies assign.
func (t *fdb) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> 32 & uint64(len(t.slots)-1))
}

// get returns mac's destination.
func (t *fdb) get(mac packet.MAC) (dest int, ok bool) {
	if t.n == 0 {
		return 0, false
	}
	key := fdbKey(mac)
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return s.dest, true
		}
		if s.key == 0 {
			return 0, false
		}
	}
}

// set points mac at dest, growing the table first when a new station
// would push its load past one half.
func (t *fdb) set(mac packet.MAC, dest int) {
	if 2*(t.n+1) > len(t.slots) {
		t.reserve(t.n + 1)
	}
	key := fdbKey(mac)
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != key && t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	if t.slots[i].key == 0 {
		t.n++
	}
	t.slots[i] = fdbSlot{key: key, dest: dest}
}

// reserve sizes the table for n stations at a load of at most one half,
// rehashing the current entries when it has to grow. Learning calls it
// while a topology is built, so traffic normally finds the table at its
// final size.
func (t *fdb) reserve(n int) {
	size := max(len(t.slots), 16)
	for size < 2*n {
		size *= 2
	}
	if size == len(t.slots) {
		return
	}
	old := t.slots
	//lint:ignore hotpathalloc amortised growth, one doubling per doubling of learned stations; fabrics pre-learn every station at build time
	t.slots = make([]fdbSlot, size)
	mask := size - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// each calls fn for every station in the table.
func (t *fdb) each(fn func(mac packet.MAC, dest int)) {
	for _, s := range t.slots {
		if s.key == 0 {
			continue
		}
		k := s.key
		fn(packet.MAC{byte(k >> 40), byte(k >> 32), byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)}, s.dest)
	}
}
