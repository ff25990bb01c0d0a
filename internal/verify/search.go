package verify

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/par"
)

// step labels one transition of the product system: a process segment
// (optionally with a dropped field transition) or a quiescent tick.
type step struct {
	proc int8  // -1 = tick
	drop int16 // index into machine.drops, -1 = none
	tick int64 // clocks advanced when proc == -1
}

// node is one stored state plus its search bookkeeping. parent/via
// record the first (hence shortest, BFS) path for counterexamples.
type node struct {
	st      *state
	parent  int32
	via     step
	depth   int32
	enabled uint32
	open    bool
	// Sleep-set reduction bookkeeping: pendingMask holds transitions
	// awaiting exploration, explored the ones already taken. A later
	// arrival with a smaller sleep set re-opens the difference
	// (pendingMask |= newly allowed), which preserves every reachable
	// state despite state caching.
	pendingMask uint32
	explored    uint32
	needsTick   bool
	queued      bool
}

type edge struct {
	from, to int32
	via      step
}

type violationSite struct {
	kind Kind
	msg  string
	node int32
	loop []edge // livelock lasso, nil otherwise
}

// vioKey dedups violations by kind and message hash — two fixed-size
// words, unlike the formatted message strings the map used to retain.
// Hashing the message (rather than keying on the site node) keeps the
// dedup classes exactly those of the legacy (kind, message) keying:
// the same finding reached at many nodes still counts once, so the
// MaxViolations cap fires at the same point and the recorded state
// counts stay byte-identical. A 64-bit collision would only merge two
// distinct findings into one report — never a soundness hole.
type vioKey struct {
	kind Kind
	msg  uint64 // FNV-1a of the formatted message
}

type searcher struct {
	m           *machine
	ctx         context.Context
	nodes       []*node
	store       *store
	edges       []edge // transitions between open states (liveness graph)
	frontier    []int32
	sites       []*violationSite
	vioKeys     map[vioKey]bool
	transitions int64
	depth       int32
	incomplete  string
	// wpool recycles per-worker expansion buffers (key arena, confirm
	// scratch, successor slice) across layers. It is allocated apart
	// from the searcher: the runtime's pool registry keeps a used pool
	// reachable until the next collection, and an embedded one would
	// keep the whole search, every stored state, alive with it.
	wpool *sync.Pool
	// nodeArena chunk-allocates node storage: one allocation per 4096
	// admissions instead of one per node.
	nodeArena []node
	// Spill bookkeeping (Config.MemBudget > 0). hotBytes tracks the
	// estimated resident bytes of unsealed states; it is a pure function
	// of the admitted states (stateEst + key length, both deterministic),
	// so sealing decisions — and therefore everything — stay worker-
	// invariant. Sealed nodes are the prefix [0, sealed) of the node
	// array, whole BFS layers at a time (layerEnds records layer
	// boundaries as cumulative node counts).
	memBudget   int64
	hotBytes    int64
	stateEst    int64
	layerEnds   []int32
	sealed      int32
	sealedLayer int
	sealBuf     []byte
	// Reachable-set fingerprint: order-independent (xor + sum of mixed
	// state hashes), so it is identical at any worker count and any
	// memory budget — the invariant the persistent verify cache leans on.
	fpXor, fpSum uint64
}

func (s *searcher) newNode() *node {
	if len(s.nodeArena) == 0 {
		s.nodeArena = make([]node, 4096)
	}
	nn := &s.nodeArena[0]
	s.nodeArena = s.nodeArena[1:]
	return nn
}

// wctx is one expansion's reusable buffers. Successor keys are slices
// of the arena, recorded as offsets because append may move it.
type wctx struct {
	arena   []byte
	scratch []byte
	succs   []succOut
	ec      *execCtx
}

// succOut is one successor computed by a worker; everything the merge
// needs is precomputed so the sequential phase stays cheap. Workers
// pre-hash the binary key and pre-check it against the store (frozen
// during expansion): a hit fixes `existing` and drops the state and key
// on the spot, a miss carries the state plus its key (arena offsets)
// to the merge, which re-checks against in-layer insertions.
type succOut struct {
	via            step
	hash           uint64
	existing       int32 // pre-checked store hit; -1 = miss
	st             *state
	keyOff, keyEnd int32
	enabled        uint32
	open           bool
	sleep          uint32
	conflicts      []string
}

type expandOut struct {
	maskUsed uint32
	tickUsed bool
	w        *wctx
	err      error
}

func newSearcher(m *machine) *searcher {
	s := &searcher{
		m:         m,
		store:     newStore(),
		vioKeys:   make(map[vioKey]bool),
		wpool:     new(sync.Pool),
		memBudget: m.cfg.MemBudget,
	}
	s.store.lossy = m.cfg.Lossy
	// stateEst approximates one hot state's resident bytes beyond its
	// key: the shell's slice headers and backing arrays plus an interface
	// word pair per value. It only steers when layers seal; being an
	// estimate costs accuracy of the budget, never correctness — but it
	// must be deterministic, so it is derived from the machine's fixed
	// layout, never from runtime measurement.
	est := int64(160 + 16*len(m.globals) + m.nTrack)
	for _, prog := range m.progs {
		est += 48 + 16*int64(len(prog.locals))
	}
	s.stateEst = est
	return s
}

// stateOf returns node idx's state: the resident pointer for hot
// nodes, a freshly decoded copy (decoded=true) for sealed ones — the
// caller releases decoded shells back to the machine pool when done.
// Safe for concurrent use during expansion: sealed records are
// immutable and the spill read path is lock-free.
func (s *searcher) stateOf(idx int32) (st *state, decoded bool, err error) {
	if st := s.nodes[idx].st; st != nil {
		return st, false, nil
	}
	st, err = s.store.spill.readState(s.m, idx)
	if err != nil {
		return nil, false, err
	}
	return st, true, nil
}

// maybeSpill seals whole BFS layers, oldest first, whenever hot states
// exceed the memory budget, stopping at half the budget so seals are
// batched rather than per-layer. The newest completed layer always
// stays hot — it is (most of) the next frontier. Runs on the
// sequential path between layers.
func (s *searcher) maybeSpill() error {
	if s.store.spill == nil || s.hotBytes <= s.memBudget {
		return nil
	}
	target := s.memBudget / 2
	sealedAny := false
	for s.sealedLayer < len(s.layerEnds)-1 && s.hotBytes > target {
		end := s.layerEnds[s.sealedLayer]
		for idx := s.sealed; idx < end; idx++ {
			if err := s.sealNode(idx, s.sealedLayer); err != nil {
				return err
			}
		}
		s.sealed = end
		s.sealedLayer++
		sealedAny = true
	}
	if sealedAny {
		return s.store.spill.finishBatch()
	}
	return nil
}

// sealNode moves one node's state to the spill tier: re-encode
// (deterministically identical to the admission-time key), append the
// record, drop the hot index entry and recycle the shell. The node
// keeps all its search bookkeeping — only the state bytes leave RAM.
func (s *searcher) sealNode(idx int32, layer int) error {
	n := s.nodes[idx]
	st := n.st
	s.sealBuf = st.encodeInto(s.sealBuf[:0])
	keyLen := len(s.sealBuf)
	s.sealBuf = st.encodeTailsInto(s.sealBuf)
	h := hashKey(s.sealBuf[:keyLen])
	s.store.removeHot(h, idx)
	if err := s.store.spill.add(h, idx, layer, s.sealBuf, keyLen); err != nil {
		return err
	}
	n.st = nil
	s.hotBytes -= s.stateEst + int64(keyLen)
	s.m.release(st)
	return nil
}

// run explores the product state space breadth-first. Each layer is
// expanded in parallel (par.For over the frontier, results in slot
// order) and merged sequentially, so state numbering, verdicts and
// counts are identical at any worker count.
func (s *searcher) run() error {
	init := s.m.initialState()
	en, err := s.m.enabledMask(s.m.newExecCtx(), init)
	if err != nil {
		return err
	}
	w0 := &wctx{arena: init.encodeInto(nil)}
	if _, err := s.admit(&succOut{
		via: step{proc: -1, drop: -1}, hash: hashKey(w0.arena), existing: -1,
		st: init, keyOff: 0, keyEnd: int32(len(w0.arena)),
		enabled: en, open: s.m.open(init),
	}, -1, w0); err != nil {
		return err
	}
	s.layerEnds = append(s.layerEnds, int32(len(s.nodes)))

	for len(s.frontier) > 0 && s.incomplete == "" {
		s.depth++
		if s.m.cfg.MaxDepth > 0 && s.depth > int32(s.m.cfg.MaxDepth) {
			s.incomplete = fmt.Sprintf("depth bound %d reached", s.m.cfg.MaxDepth)
			break
		}
		layer := s.frontier
		s.frontier = nil
		results := make([]expandOut, len(layer))
		if err := par.ForCtx(s.ctx, len(layer), s.m.cfg.Workers, func(i int) {
			results[i] = s.expand(layer[i])
		}); err != nil {
			// Canceled mid-layer: unexpanded slots hold zero expandOuts
			// (nil wctx, no successors) — nothing to merge, nothing leaks
			// beyond pooled buffers the GC reclaims.
			return err
		}
		for i, idx := range layer {
			if err := s.merge(idx, results[i]); err != nil {
				return err
			}
			if s.incomplete != "" {
				break
			}
		}
		if s.incomplete == "" {
			s.layerEnds = append(s.layerEnds, int32(len(s.nodes)))
			if err := s.maybeSpill(); err != nil {
				return err
			}
		}
		if p := s.m.cfg.Progress; p != nil {
			p(len(s.nodes), int(s.depth))
		}
	}
	return nil
}

// expand computes every successor of one node: for each pending process
// its normal segment plus one drop variant per droppable field change,
// then the quiescent tick when nothing is enabled. Pure with respect to
// shared search state — mutation happens in merge. (The store is read,
// never written: pre-check hits against it stay valid because states
// are never removed.)
func (s *searcher) expand(idx int32) expandOut {
	n := s.nodes[idx]
	w, ok := s.wpool.Get().(*wctx)
	if !ok {
		w = &wctx{}
	}
	if w.ec == nil {
		w.ec = s.m.newExecCtx()
	}
	out := expandOut{maskUsed: n.pendingMask, tickUsed: n.needsTick, w: w}
	// A sealed node re-opened by fold is decoded from its spill record;
	// hot nodes expand from the resident state as before.
	nst, decoded, err := s.stateOf(idx)
	if err != nil {
		out.err = err
		return out
	}
	if decoded {
		defer s.m.release(nst)
	}
	// disallowed = the node's effective sleep set relative to enabled.
	disallowed := n.enabled &^ (n.pendingMask | n.explored)
	var earlier uint32
	for p := 0; p < len(s.m.progs); p++ {
		bit := uint32(1) << uint(p)
		if n.pendingMask&bit == 0 {
			continue
		}
		res, err := s.m.exec(w.ec, nst, p)
		if err != nil {
			out.err = err
			return out
		}
		sleep := (disallowed | n.explored | earlier) & s.m.indep[p]
		earlier |= bit
		normHit, err := s.emit(w, step{proc: int8(p), drop: -1}, res.st, sleep, res.conflicts)
		if err != nil {
			out.err = err
			return out
		}
		if nst.budget > 0 {
			for di, d := range s.m.drops {
				if !dropApplies(d, res.commits) {
					continue
				}
				ds := s.m.dropVariant(nst, res.st, di)
				// Conflicts belong to the shared segment and are already
				// reported on the normal successor.
				hit, err := s.emit(w, step{proc: int8(p), drop: int16(di)}, ds, sleep, nil)
				if err != nil {
					out.err = err
					return out
				}
				if hit {
					s.m.release(ds)
				}
			}
		}
		// The norm state seeds its drop variants above, so its shell is
		// only recyclable once they have all been derived.
		if normHit {
			s.m.release(res.st)
		}
	}
	if n.needsTick {
		ts, clocks, ok := s.m.tick(nst)
		if ok {
			// Time advance interacts with every timer: no sleep carries over.
			hit, err := s.emit(w, step{proc: -1, drop: -1, tick: clocks}, ts, 0, nil)
			if err != nil {
				out.err = err
				return out
			}
			if hit {
				s.m.release(ts)
			}
		}
	}
	return out
}

func dropApplies(d dropTarget, commits []commitEvent) bool {
	for _, c := range commits {
		if c.bus == d.bus && c.changed&(1<<uint(d.field)) != 0 {
			return true
		}
	}
	return false
}

// emit encodes one successor into the worker's arena, hashes it and
// pre-checks the frozen store. On a hit the key is discarded, the
// existing node index recorded, and the (now redundant) enabled-mask
// evaluation skipped entirely — the caller owns releasing the state.
// On a miss the key stays in the arena for the merge's re-check.
func (s *searcher) emit(w *wctx, via step, st *state, sleep uint32, conflicts []string) (hit bool, err error) {
	off := int32(len(w.arena))
	w.arena = st.encodeInto(w.arena)
	key := w.arena[off:]
	h := hashKey(key)
	j, scratch, ok, lerr := s.store.lookup(h, key, s.nodes, w.scratch)
	w.scratch = scratch
	if lerr != nil {
		return false, lerr
	}
	if ok {
		w.arena = w.arena[:off]
		w.succs = append(w.succs, succOut{
			via: via, hash: h, existing: j, sleep: sleep, conflicts: conflicts,
		})
		return true, nil
	}
	en, err := s.m.enabledMask(w.ec, st)
	if err != nil {
		return false, err
	}
	w.succs = append(w.succs, succOut{
		via: via, hash: h, existing: -1, st: st,
		keyOff: off, keyEnd: int32(len(w.arena)),
		enabled: en, open: s.m.open(st), sleep: sleep, conflicts: conflicts,
	})
	return false, nil
}

// merge folds one expansion into the store, in deterministic order.
// The node's queue flag is only finalized after all successors are
// admitted: a re-arrival (possibly a self-loop) can hand the node fresh
// pending bits mid-merge, and it must be re-queued for them.
func (s *searcher) merge(idx int32, out expandOut) error {
	defer s.recycle(out.w)
	if out.err != nil {
		return out.err
	}
	n := s.nodes[idx]
	n.explored |= out.maskUsed
	n.pendingMask &^= out.maskUsed
	if out.tickUsed {
		n.needsTick = false
	}
	for i := range out.w.succs {
		sc := &out.w.succs[i]
		s.transitions++
		j, err := s.admit(sc, idx, out.w)
		if err != nil {
			return err
		}
		if s.incomplete != "" {
			return nil
		}
		for _, msg := range sc.conflicts {
			s.addViolation(DriverConflict, msg, j, nil)
		}
		if n.open && s.nodes[j].open {
			s.edges = append(s.edges, edge{from: idx, to: j, via: sc.via})
		}
	}
	n.queued = n.pendingMask != 0 || n.needsTick
	if n.queued {
		s.frontier = append(s.frontier, idx)
	}
	return nil
}

// recycle clears a worker context (dropping its state and conflict
// references so pooled buffers don't pin dead objects) and returns it
// to the pool.
func (s *searcher) recycle(w *wctx) {
	if w == nil {
		return
	}
	for i := range w.succs {
		w.succs[i] = succOut{}
	}
	w.succs = w.succs[:0]
	w.arena = w.arena[:0]
	s.wpool.Put(w)
}

// admit stores a successor (or folds a re-arrival into the existing
// node) and classifies terminal and quiescent states. parent is -1 for
// the initial state. A pre-checked hit folds directly; a miss is
// re-checked against the store because an earlier merge slot of the
// same layer may have admitted the state already — in that case the
// duplicate's shell goes back to the pool.
func (s *searcher) admit(sc *succOut, parent int32, w *wctx) (int32, error) {
	if sc.existing >= 0 {
		s.fold(sc.existing, sc.sleep)
		return sc.existing, nil
	}
	key := w.arena[sc.keyOff:sc.keyEnd]
	ex, scratch, ok, err := s.store.lookup(sc.hash, key, s.nodes, w.scratch)
	w.scratch = scratch
	if err != nil {
		return 0, err
	}
	if ok {
		s.fold(ex, sc.sleep)
		s.m.release(sc.st)
		return ex, nil
	}
	j := int32(len(s.nodes))
	depth := int32(0)
	if parent >= 0 {
		depth = s.nodes[parent].depth + 1
	}
	nn := s.newNode()
	*nn = node{
		st: sc.st, parent: parent, via: sc.via, depth: depth,
		enabled: sc.enabled, open: sc.open,
		pendingMask: sc.enabled &^ sc.sleep,
	}
	s.nodes = append(s.nodes, nn)
	s.store.insert(sc.hash, j)
	s.hotBytes += s.stateEst + int64(sc.keyEnd-sc.keyOff)
	mixed := bloomMix(sc.hash)
	s.fpXor ^= mixed
	s.fpSum += mixed
	if s.m.cfg.MaxStates > 0 && len(s.nodes) > s.m.cfg.MaxStates {
		s.incomplete = fmt.Sprintf("state bound %d reached", s.m.cfg.MaxStates)
		return j, nil
	}
	if sc.enabled == 0 {
		hasTimer := false
		for p := range s.m.progs {
			if sc.st.ps[p].blocked && !sc.st.ps[p].fin && sc.st.ps[p].rem > 0 {
				hasTimer = true
				break
			}
		}
		nn.needsTick = hasTimer
		s.classifyQuiet(j, sc.st, hasTimer)
	}
	if nn.pendingMask != 0 || nn.needsTick {
		nn.queued = true
		s.frontier = append(s.frontier, j)
	}
	return j, nil
}

// fold merges a re-arrival into an existing node: an arrival with a
// smaller sleep set re-opens the newly allowed transitions.
func (s *searcher) fold(j int32, sleep uint32) {
	old := s.nodes[j]
	allowed := old.enabled &^ sleep
	if fresh := allowed &^ old.explored &^ old.pendingMask; fresh != 0 {
		old.pendingMask |= fresh
		if !old.queued {
			old.queued = true
			s.frontier = append(s.frontier, j)
		}
	}
}

// classifyQuiet inspects a state with no enabled process. Without
// pending timers it is terminal: either every foreground process
// finished (check data delivery) or the system is deadlocked. With
// timers but a closed bus and all foreground work done, the system is
// quiescent between server drain timeouts — the delivery check runs
// there too, the model analogue of the simulator's grace window.
func (s *searcher) classifyQuiet(j int32, st *state, hasTimer bool) {
	var finMask uint32
	for p := range s.m.progs {
		if st.ps[p].fin {
			finMask |= 1 << uint(p)
		}
	}
	fgDone := s.m.fgMask&^finMask == 0
	if !hasTimer && !fgDone {
		s.addViolation(Deadlock, "deadlock: "+s.m.describeState(st), j, nil)
		return
	}
	if fgDone && !s.m.open(st) {
		s.checkDelivery(j, st)
	}
}

// checkDelivery compares module-variable finals against the golden
// fault-free simulation. A run that aborted cleanly (any abort counter
// advanced) is excused; a silent mismatch is data corruption.
func (s *searcher) checkDelivery(j int32, st *state) {
	if s.m.expected == nil {
		return
	}
	aborted := false
	for _, slot := range s.m.abortSlots {
		if !valIsZero(st.g[slot]) {
			aborted = true
			break
		}
	}
	if aborted {
		return
	}
	skip := make(map[int]bool, len(s.m.abortSlots))
	for _, slot := range s.m.abortSlots {
		skip[slot] = true
	}
	for slot, want := range s.m.expected {
		if want == nil || skip[slot] {
			continue
		}
		if !st.g[slot].Equal(want) {
			s.addViolation(Corruption, fmt.Sprintf(
				"data delivery violated: %s = %s, golden run delivered %s (and no clean abort was signalled)",
				s.m.gname[slot], st.g[slot], want), j, nil)
			return
		}
	}
}

func (s *searcher) addViolation(kind Kind, msg string, node int32, loop []edge) {
	key := vioKey{kind: kind, msg: hashString(msg)}
	if s.vioKeys[key] {
		return
	}
	s.vioKeys[key] = true
	s.sites = append(s.sites, &violationSite{kind: kind, msg: msg, node: node, loop: loop})
	if max := s.m.cfg.MaxViolations; max > 0 && len(s.sites) >= max && s.incomplete == "" {
		s.incomplete = fmt.Sprintf("violation cap %d reached", max)
	}
}

// checkLiveness looks for a cycle in the open-state subgraph: a lasso
// along which some transaction strobe never returns to idle, i.e. a
// START that is never answered by a completed handshake or a clean
// abort. Runs after the search on the recorded edges.
func (s *searcher) checkLiveness() error {
	if len(s.edges) == 0 {
		return nil
	}
	// Adjacency in CSR form: node n's outgoing edges are
	// edgeIdx[off[n]:off[n+1]], in recording order.
	off := make([]int32, len(s.nodes)+1)
	for _, e := range s.edges {
		off[e.from+1]++
	}
	for n := range s.nodes {
		off[n+1] += off[n]
	}
	edgeIdx := make([]int32, len(s.edges))
	fill := append([]int32(nil), off[:len(s.nodes)]...)
	for i, e := range s.edges {
		edgeIdx[fill[e.from]] = int32(i)
		fill[e.from]++
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int8, len(s.nodes))
	type frameT struct {
		node int32
		next int
		in   int // edge index that entered this node, -1 for roots
	}
	for root := range s.nodes {
		r := int32(root)
		if color[r] != white || off[r] == off[r+1] {
			continue
		}
		stack := []frameT{{node: r, in: -1}}
		color[r] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			es := edgeIdx[off[f.node]:off[f.node+1]]
			if f.next >= len(es) {
				color[f.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			ei := int(es[f.next])
			f.next++
			to := s.edges[ei].to
			switch color[to] {
			case white:
				color[to] = grey
				stack = append(stack, frameT{node: to, in: ei})
			case grey:
				// Back edge: the lasso loop runs from `to` around to the
				// current node and back via ei.
				var loop []edge
				start := 0
				for i, fr := range stack {
					if fr.node == to {
						start = i
						break
					}
				}
				for _, fr := range stack[start+1:] {
					loop = append(loop, s.edges[fr.in])
				}
				loop = append(loop, s.edges[ei])
				st, decoded, err := s.stateOf(to)
				if err != nil {
					return err
				}
				desc := s.m.describeState(st)
				if decoded {
					s.m.release(st)
				}
				s.addViolation(Livelock, fmt.Sprintf(
					"bounded-response violated: a transaction stays open around a %d-transition cycle (%s)",
					len(loop), desc), to, loop)
				return nil
			}
		}
	}
	return nil
}

// pathTo reconstructs the BFS-shortest step sequence from the initial
// state to the node.
func (s *searcher) pathTo(node int32) []step {
	var steps []step
	for i := node; i > 0; i = s.nodes[i].parent {
		steps = append(steps, s.nodes[i].via)
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return steps
}
