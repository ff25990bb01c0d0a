package verify

// storeShards is the shard count of the dedup store; a power of two so
// shard selection is a mask of the hash's low bits.
const storeShards = 64

// store is the searcher's deduplicating state index, in the hash-
// compaction lineage: it maps the 64-bit hash of each hot state's row
// (rowLayout.hash) to its node index, across storeShards shard maps
// keyed by the hash's low bits, and retains no key. Two distinct states
// can share a hash, so a hash hit is a candidate, not an answer: the
// searcher (searcher.lookup) confirms it against the candidate's row,
// comparing value ids (an unset local as its initial value's) plus the
// control bytes — exactly key equality, without building either key.
// Unlike SPIN's probabilistic bitstate mode, a collision costs one row
// comparison, never a soundness hole. The rare confirmed-distinct same-hash states
// chain through the overflow map, allocated lazily on the first
// confirmed collision.
//
// With a memory budget (Config.MemBudget) the store is tiered: the
// shard maps index only the hot (resident) nodes, and sealed nodes
// move to the spill tier — a hot miss falls through to it, where the
// probe's key bytes are compared with the record's (spill.go). In
// lossy mode (Config.Lossy) the confirm is skipped in both tiers and a
// hash match is final, which trades a quantified omission probability
// for never comparing states on a hit.
//
// Concurrency contract: insert and removeHot only run in sequential
// phases (merge, seal). During parallel expansion the store is frozen,
// so workers may probe it concurrently to pre-dedup successors (a miss
// must be re-checked at merge time — an earlier merge slot may have
// inserted the state — but a hit is final, states are never removed
// from the store, only moved between tiers).
type store struct {
	shards   [storeShards]map[uint64]int32
	overflow map[uint64][]int32
	lossy    bool
	spill    *spillStore // nil when no memory budget is set
}

func newStore() *store {
	st := &store{}
	for i := range st.shards {
		st.shards[i] = make(map[uint64]int32)
	}
	return st
}

// first returns the first hot node stored under hash h; the rest of
// its collision chain is overflow[h].
func (st *store) first(h uint64) (int32, bool) {
	j, ok := st.shards[h&(storeShards-1)][h]
	return j, ok
}

// insert records node j as (another) state hashing to h. The caller has
// already established via searcher.lookup that j's state is not
// present.
func (st *store) insert(h uint64, j int32) {
	sh := st.shards[h&(storeShards-1)]
	if _, exists := sh[h]; exists {
		if st.overflow == nil {
			st.overflow = make(map[uint64][]int32)
		}
		st.overflow[h] = append(st.overflow[h], j)
		return
	}
	sh[h] = j
}

// removeHot drops node j from the hot tier ahead of sealing it into
// the spill tier, promoting the next overflow entry if j headed a
// collision chain. Only called from the sequential seal phase; nodes
// seal in insertion order, so j heads its chain whenever one exists.
func (st *store) removeHot(h uint64, j int32) {
	sh := st.shards[h&(storeShards-1)]
	cur, ok := sh[h]
	if !ok {
		return
	}
	if cur == j {
		if ov := st.overflow[h]; len(ov) > 0 {
			sh[h] = ov[0]
			if len(ov) == 1 {
				delete(st.overflow, h)
			} else {
				st.overflow[h] = ov[1:]
			}
		} else {
			delete(sh, h)
		}
		return
	}
	for i, k := range st.overflow[h] {
		if k == j {
			st.overflow[h] = append(st.overflow[h][:i], st.overflow[h][i+1:]...)
			if len(st.overflow[h]) == 0 {
				delete(st.overflow, h)
			}
			return
		}
	}
}
