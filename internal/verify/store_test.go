package verify

import (
	"fmt"
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
// own node, chaining through the overflow list, and rejecting a
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

// TestStoreShardsByHash checks states land in the shard their hash's
// low bits select, so the per-shard maps stay balanced and disjoint,
// and that a row's hash does not depend on its table's ids.
func TestStoreShardsByHash(t *testing.T) {
	s, other := newRowStore(), newRowStore()
	other.probe(intState(-1)) // shift the other table's ids
	for i := int64(0); i < 200; i++ {
		st := intState(i)
		h := s.lay.hash(s.seq.in, s.probe(st))
		if got := other.lay.hash(other.seq.in, other.probe(st)); got != h {
			t.Fatalf("state %d: row hash %x in one table, %x in another", i, h, got)
		}
		s.put(h, st)
	}
	total := 0
	occupied := 0
	for i, sh := range s.store.shards {
		for h := range sh {
			if h&(storeShards-1) != uint64(i) {
				t.Fatalf("hash %x stored in shard %d", h, i)
			}
		}
		total += len(sh)
		if len(sh) > 0 {
			occupied++
		}
	}
	if total != 200 {
		t.Fatalf("stored %d hashes across shards, want 200 (overflow: %d)", total, len(s.store.overflow))
	}
	if occupied < storeShards/2 {
		t.Fatalf("only %d/%d shards occupied — the row hash's low bits are not spreading", occupied, storeShards)
	}
	for i := int64(0); i < 200; i++ {
		st := intState(i)
		row := s.probe(st)
		j, ok, _ := s.lookup(s.seq, s.lay.hash(s.seq.in, row), row)
		if !ok || j != int32(i) {
			t.Fatalf("state %d: lookup = (%d, %v)", i, j, ok)
		}
	}
}

// TestOverflowLazyAllocation pins the satellite fix: the overflow map
// exists only after a real 64-bit hash collision, so the common
// collision-free run carries no empty map.
func TestOverflowLazyAllocation(t *testing.T) {
	st := newStore()
	if st.overflow != nil {
		t.Fatal("overflow map allocated before any insert")
	}
	for i := uint64(0); i < 100; i++ {
		st.insert(bloomMix(i), int32(i))
	}
	if st.overflow != nil {
		t.Fatalf("overflow map allocated without a collision (%d entries)", len(st.overflow))
	}
	st.insert(bloomMix(0), 100)
	if len(st.overflow) != 1 {
		t.Fatalf("collision did not populate overflow: %d entries", len(st.overflow))
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
