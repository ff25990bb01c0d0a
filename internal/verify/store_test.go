package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/spec"
)

// intState is a minimal one-global, process-free state for store tests.
func intState(v int64) *state {
	return &state{g: []sim.Value{sim.IntVal{V: v}}}
}

// newRowStore returns a searcher over intState's shape, for driving the
// store and its row confirmation directly.
func newRowStore() *searcher {
	m := &machine{cfg: withDefaults(Config{}), globals: make([]*spec.Variable, 1)}
	m.lay = newRowLayout(1, nil, 0)
	return newSearcher(m)
}

// put stores st as a new node under hash h, bypassing lookup.
func (s *searcher) put(h uint64, st *state) int32 {
	j := int32(s.count())
	s.nodes.add()
	s.lay.rowOf(s.seq.in, s.rows.add(), st)
	s.store.insert(h, j)
	return j
}

// probe returns st's row.
func (s *searcher) probe(st *state) []byte {
	row := make([]byte, s.lay.size)
	s.lay.rowOf(s.seq.in, row, st)
	return row
}

// TestStoreConfirmsOnCollision forces distinct states onto one hash
// (inserting them under the same h, as a real 64-bit collision would)
// and checks that lookup confirms on the rows — returning each state's
// own node from successive slots of the probe run, and rejecting a
// same-hash stranger instead of aliasing it to a stored state.
func TestStoreConfirmsOnCollision(t *testing.T) {
	s := newRowStore()
	const h = uint64(0xdeadbeefcafef00d)
	for i := int64(0); i < 3; i++ {
		s.put(h, intState(i))
	}
	for i := int64(0); i < 3; i++ {
		j, ok, _ := s.lookup(s.seq, h, s.probe(intState(i)))
		if !ok || j != int32(i) {
			t.Fatalf("state %d: lookup = (%d, %v), want (%d, true)", i, j, ok, i)
		}
	}
	// A fourth state with the same hash but a different key must miss:
	// hash equality alone never admits a state.
	probe := s.probe(intState(99))
	if j, ok, _ := s.lookup(s.seq, h, probe); ok {
		t.Fatalf("stranger with colliding hash matched node %d", j)
	}
	// And a hash nobody inserted misses without touching candidates.
	if _, ok, _ := s.lookup(s.seq, h+1, probe); ok {
		t.Fatal("lookup hit on an absent hash")
	}
}

// TestStoreMatchesReference drives the table through seeded inserts and
// removals against a map[uint64][]int32 reference, checking every
// lookup after each step. Node j holds the state intState(j) under a
// hash drawn from a pool built to stress the table: whole 64-bit hashes
// shared by several states, tags shared by hashes with different low
// halves, and tags whose home is the table's last slots, so their probe
// runs wrap to its start. Removals run both oldest first, as sealing
// removes nodes, and at random. The table starts at 4 slots, so it
// doubles at least nine times on the way.
func TestStoreMatchesReference(t *testing.T) {
	// A row's hash does not depend on its table's ids.
	s, other := newRowStore(), newRowStore()
	other.probe(intState(-1)) // shift the other table's ids
	for i := int64(0); i < 200; i++ {
		row := s.probe(intState(i))
		if h, got := s.lay.hash(s.seq.in, row), other.lay.hash(other.seq.in, other.probe(intState(i))); got != h {
			t.Fatalf("state %d: row hash %x in one table, %x in another", i, h, got)
		}
	}

	rng := rand.New(rand.NewSource(1))
	var pool []uint64
	for _, tag := range []uint64{0, 1, 0x7fffffff, 0xfffffffe, 0xffffffff} {
		for k := 0; k < 3; k++ {
			pool = append(pool, tag<<32|uint64(rng.Uint32()))
		}
	}
	for k := 0; k < 20; k++ {
		pool = append(pool, rng.Uint64())
	}
	hashOf := func() uint64 {
		if rng.Intn(4) == 0 {
			return rng.Uint64()
		}
		return pool[rng.Intn(len(pool))]
	}

	s = newRowStore()
	s.store = &store{slots: make([]uint64, 4), shift: 62}
	ref := make(map[uint64][]int32)
	var hashes []uint64 // by node
	var probes [][]byte // by node: its row
	var live []int32    // in insertion order
	stranger := s.probe(intState(-2))
	check := func(step int) {
		t.Helper()
		n := 0
		for h, js := range ref {
			n += len(js)
			for _, j := range js {
				if got, ok, _ := s.lookup(s.seq, h, probes[j]); !ok || got != j {
					t.Fatalf("step %d: node %d under %x: lookup = (%d, %v)", step, j, h, got, ok)
				}
			}
			if got, ok, _ := s.lookup(s.seq, h, stranger); ok {
				t.Fatalf("step %d: stranger under %x matched node %d", step, h, got)
			}
		}
		if s.store.n != n || 2*n > len(s.store.slots) || len(s.store.slots) != 1<<(64-s.store.shift) {
			t.Fatalf("step %d: %d occupied of %d slots homed by shift %d, reference holds %d",
				step, s.store.n, len(s.store.slots), s.store.shift, n)
		}
	}
	remove := func(step, at int) {
		j := live[at]
		live = append(live[:at], live[at+1:]...)
		h := hashes[j]
		s.store.removeHot(h, j)
		js := ref[h]
		for i, k := range js {
			if k == j {
				js = append(js[:i], js[i+1:]...)
				break
			}
		}
		if len(js) == 0 {
			delete(ref, h)
		} else {
			ref[h] = js
		}
		if got, ok, _ := s.lookup(s.seq, h, probes[j]); ok {
			t.Fatalf("step %d: removed node %d still found as %d", step, j, got)
		}
	}
	for step := 0; step < 1800; step++ {
		// Eight in ten steps insert while the table fills, three in ten
		// once it drains.
		inserts := 8
		if step >= 1000 {
			inserts = 3
		}
		switch r := rng.Intn(10); {
		case r < inserts || len(live) == 0:
			h := hashOf()
			j := s.put(h, intState(int64(len(hashes))))
			hashes = append(hashes, h)
			probes = append(probes, s.probe(intState(int64(j))))
			live = append(live, j)
			ref[h] = append(ref[h], j)
		case r%2 == 0:
			remove(step, 0)
		default:
			remove(step, rng.Intn(len(live)))
		}
		check(step)
	}
	if len(s.store.slots) < 4<<9 {
		t.Fatalf("table reached %d slots; the run was meant to double it at least nine times", len(s.store.slots))
	}
}

// TestStoreLossyConfirmsFullHash: in lossy mode a hash match is final,
// even for another state, but a slot whose tag matches a probe hash
// whose low half differs is not a hit: the candidate's row hash is
// recomputed and compared whole.
func TestStoreLossyConfirmsFullHash(t *testing.T) {
	s := newRowStore()
	s.store.lossy = true
	row := s.probe(intState(5))
	h := s.lay.hash(s.seq.in, row)
	j := s.put(h, intState(5))
	if got, ok, _ := s.lookup(s.seq, h, s.probe(intState(6))); !ok || got != j {
		t.Fatalf("lossy lookup on the full hash = (%d, %v), want (%d, true)", got, ok, j)
	}
	if got, ok, _ := s.lookup(s.seq, h^1, row); ok {
		t.Fatalf("lossy lookup matched node %d on its tag alone", got)
	}
}

// TestViolationDedupBounded pins the vioKeys memory fix: reporting the
// same violation at one site over and over must not grow the dedup map
// or the site list, and the map's keys are fixed-size (kind, hash)
// pairs — it retains no message strings no matter how many distinct
// sites report.
func TestViolationDedupBounded(t *testing.T) {
	s := newSearcher(&machine{cfg: withDefaults(Config{MaxViolations: 100})})
	for i := 0; i < 50; i++ {
		s.addViolation(Deadlock, "deadlock: P stuck at the same site", 7, nil)
	}
	if len(s.vioKeys) != 1 || len(s.sites) != 1 {
		t.Fatalf("repeated violation at one site: %d keys, %d sites, want 1, 1", len(s.vioKeys), len(s.sites))
	}
	// The same finding surfacing at other nodes is still one site (the
	// legacy message-keyed semantics the state counts depend on).
	for n := int32(8); n < 40; n++ {
		s.addViolation(Deadlock, "deadlock: P stuck at the same site", n, nil)
	}
	if len(s.vioKeys) != 1 || len(s.sites) != 1 {
		t.Fatalf("same message across nodes: %d keys, %d sites, want 1, 1", len(s.vioKeys), len(s.sites))
	}
	// Distinct findings still accumulate, each once.
	for i := 0; i < 10; i++ {
		msg := fmt.Sprintf("driver conflict on B.F%d", i)
		s.addViolation(DriverConflict, msg, 7, nil)
		s.addViolation(DriverConflict, msg, 7, nil)
	}
	if len(s.vioKeys) != 11 || len(s.sites) != 11 {
		t.Fatalf("distinct violations: %d keys, %d sites, want 11, 11", len(s.vioKeys), len(s.sites))
	}
	// And the cap still halts the search.
	s.m.cfg.MaxViolations = 12
	s.addViolation(Corruption, "one more", 3, nil)
	if s.incomplete == "" {
		t.Fatal("violation cap did not mark the search incomplete")
	}
}
