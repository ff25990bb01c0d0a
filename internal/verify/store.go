package verify

// store is the searcher's deduplicating state index, in the hash-
// compaction lineage: one open-addressing table mapping the 64-bit hash
// of each hot state's row (rowLayout.hash) to its node index, retaining
// no key. A slot is 8 bytes, the hash's high 32 bits (its tag) over
// node+1, so 0 is empty. The table is a power of two long, a slot's
// home is its hash's top bits (which the tag holds, so a doubling
// re-homes every slot from the slot alone), probing is linear, and the
// table doubles before it passes half load.
//
// A tag match is a candidate, not an answer: searcher.lookup confirms
// it against the candidate's row, comparing value ids (an unset local
// as its initial value's) plus the control bytes — exactly key
// equality, without building either key. Unlike SPIN's bitstate mode,
// a collision costs one row comparison, never a soundness hole; states
// sharing a tag, or a whole hash, take successive slots.
//
// With a memory budget (Config.MemBudget) the store is tiered: the
// table indexes only the hot (resident) nodes, and sealed nodes' rows
// move to the spill tier — a hot miss falls through to it, where each
// candidate's row is confirmed the same way (spill.go). In lossy mode
// (Config.Lossy) a full 64-bit hash match is final in both tiers (the
// hot tier recomputes the candidate row's hash), which trades a
// quantified omission probability for never comparing states.
//
// Concurrency contract: insert and removeHot only run in sequential
// phases (merge, seal). During parallel expansion the store is frozen,
// so workers may probe it concurrently to pre-dedup successors (a miss
// must be re-checked at merge time — an earlier merge slot may have
// inserted the state — but a hit is final, states are never removed
// from the store, only moved between tiers).
type store struct {
	slots []uint64
	// shift brings a hash's or a slot's top bits down to its home; with
	// int32 node ids the table stays under 2^32 slots, so it is >= 32.
	shift uint
	n     int // occupied slots
	lossy bool
	spill *spillStore // nil when no memory budget is set
}

// storeMinBits sizes a new table: 1,024 slots, 8 KiB.
const storeMinBits = 10

func newStore() *store {
	return &store{slots: make([]uint64, 1<<storeMinBits), shift: 64 - storeMinBits}
}

// slotOf packs node j under hash h.
func slotOf(h uint64, j int32) uint64 { return h>>32<<32 | uint64(uint32(j)+1) }

// slotNode is the node an occupied slot holds.
func slotNode(e uint64) int32 { return int32(uint32(e) - 1) }

// next is the slot after i, wrapping at the table's end.
func (st *store) next(i uint64) uint64 { return (i + 1) & uint64(len(st.slots)-1) }

// insert records node j under hash h. The caller has already
// established via searcher.lookup that j's state is not present.
func (st *store) insert(h uint64, j int32) {
	if 2*(st.n+1) > len(st.slots) {
		st.grow()
	}
	st.place(slotOf(h, j))
	st.n++
}

// place puts e in the first empty slot from its home on.
func (st *store) place(e uint64) {
	i := e >> st.shift
	for st.slots[i] != 0 {
		i = st.next(i)
	}
	st.slots[i] = e
}

// grow doubles the table, re-homing every slot.
func (st *store) grow() {
	old := st.slots
	st.slots = make([]uint64, 2*len(old))
	st.shift--
	for _, e := range old {
		if e != 0 {
			st.place(e)
		}
	}
}

// removeHot drops node j, stored under hash h, from the hot tier ahead
// of sealing it into the spill tier. The hole it leaves is filled by
// backward shifting: each later slot of the probe run whose home lies
// at or before the hole moves into it, so every remaining slot stays
// reachable from its home without tombstones. Only called from the
// sequential seal phase.
func (st *store) removeHot(h uint64, j int32) {
	e := slotOf(h, j)
	i := h >> st.shift
	for st.slots[i] != e {
		if st.slots[i] == 0 {
			return
		}
		i = st.next(i)
	}
	mask := uint64(len(st.slots) - 1)
	for k := st.next(i); st.slots[k] != 0; k = st.next(k) {
		// Slot k may fill the hole at i when its probe distance from
		// its home is at least the hole's distance behind k.
		if (k-st.slots[k]>>st.shift)&mask >= (k-i)&mask {
			st.slots[i] = st.slots[k]
			i = k
		}
	}
	st.slots[i] = 0
	st.n--
}
