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

// node is one stored state's search bookkeeping; its state is row i of
// the searcher's row slab while hot, and the same row in the spill tier
// once sealed.
// parent/via record the first (hence shortest, BFS) path for
// counterexamples. A node holds no pointers.
type node struct {
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
	m   *machine
	ctx context.Context
	lay *rowLayout
	// nodes and rows are indexed by node id; rows holds the hot states
	// (row.go) and drops its chunks as layers seal.
	nodes       slab[node]
	rows        slab[byte]
	vals        *valueTable
	store       *store
	edges       []edge // transitions between open states (liveness graph)
	frontier    []int32
	spare       []int32 // the previous layer's frontier, reused
	sites       []*violationSite
	vioKeys     map[vioKey]bool
	transitions int64
	depth       int32
	incomplete  string
	// Expansion contexts: workers lists every one made, idle the ones
	// not held by an expanding goroutine; seq is the sequential phases'
	// own (merge, seal, liveness).
	mu      sync.Mutex
	workers []*wctx
	idle    []*wctx
	seq     *wctx
	results []expandOut
	// Spill bookkeeping (Config.MemBudget > 0). hotBytes tracks the
	// estimated resident bytes of unsealed states; it is a pure function
	// of the admitted state count (stateEst is derived from the row
	// layout), so sealing decisions — and therefore everything — stay
	// worker-invariant. Sealed nodes are the prefix [0, sealed) of the
	// node array, whole BFS layers at a time (layerEnds records layer
	// boundaries as cumulative node counts).
	memBudget   int64
	hotBytes    int64
	stateEst    int64
	layerEnds   []int32
	sealed      int32
	sealedLayer int
	// Reachable-set fingerprint: order-independent (xor + sum of mixed
	// state hashes), so it is identical at any worker count and any
	// memory budget — the invariant the persistent verify cache leans on.
	fpXor, fpSum uint64
}

// node returns node j's bookkeeping. The pointer stays valid as the
// search grows: slab chunks never move.
func (s *searcher) node(j int32) *node { return &s.nodes.at(int(j))[0] }

// count is the number of stored states.
func (s *searcher) count() int { return s.nodes.n }

// wctx is one expanding goroutine's context: the executor, the
// interner, the scratch states a node expands through, and the layer's
// output — every successor it computed, and the rows of those that
// missed the store — which stays put until the layer is merged.
type wctx struct {
	ec *execCtx
	in *interner
	// cur is the node being expanded, norm a process's normal successor
	// and alt a drop variant of norm or the quiescent tick; nrow and arow
	// hold norm's and alt's rows. prow holds a sealed parent's spill
	// record, and crow a sealed candidate's.
	cur, norm, alt   *state
	prow, nrow, arow []byte
	crow             []byte
	succs            []succOut
	rows             []byte
}

// succOut is one successor computed by a worker; everything the merge
// needs is precomputed so the sequential phase stays cheap. Workers
// hash the successor's row and pre-check it against the store (frozen
// during expansion): a hit fixes `existing`, a miss carries the row
// (at offset row of the worker's rows) to the merge, which re-checks
// against in-layer insertions.
type succOut struct {
	via       step
	hash      uint64
	existing  int32 // pre-checked store hit; -1 = miss
	row       int32
	enabled   uint32
	open      bool
	sleep     uint32
	conflicts []string
}

// expandOut is one node's expansion: its successors are w.succs[lo:hi].
type expandOut struct {
	maskUsed uint32
	tickUsed bool
	w        *wctx
	lo, hi   int32
	err      error
}

// hotIndexBytes is a hot state's share of the hot index beyond its
// row: an 8-byte slot in a table a quarter to half full, 16 to 32
// bytes. The estimate keeps the low end: it fixes where layers seal,
// and every recorded spill count depends on that.
const hotIndexBytes = 16

func newSearcher(m *machine) *searcher {
	s := &searcher{
		m:         m,
		lay:       &m.lay,
		nodes:     slab[node]{stride: 1},
		rows:      slab[byte]{stride: m.lay.size},
		vals:      newValueTable(),
		store:     newStore(),
		vioKeys:   make(map[vioKey]bool),
		memBudget: m.cfg.MemBudget,
	}
	s.store.lossy = m.cfg.Lossy
	// stateEst approximates one hot state's resident bytes: its row and
	// its hot index entry. It only steers when layers seal; being an
	// estimate costs accuracy of the budget, never correctness — but it
	// must be deterministic, so it is derived from the machine's fixed
	// layout, never from runtime measurement.
	s.stateEst = int64(m.lay.size + hotIndexBytes)
	s.seq = s.newWorker()
	return s
}

func (s *searcher) newWorker() *wctx {
	return &wctx{
		ec:   s.m.newExecCtx(),
		in:   newInterner(s.vals),
		cur:  s.m.newState(),
		norm: s.m.newState(),
		alt:  s.m.newState(),
		prow: make([]byte, s.lay.size+recSum),
		nrow: make([]byte, s.lay.size),
		arow: make([]byte, s.lay.size),
		crow: make([]byte, s.lay.size+recSum),
	}
}

// getWorker hands an expanding goroutine a context of its own.
func (s *searcher) getWorker() *wctx {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return w
	}
	w := s.newWorker()
	s.workers = append(s.workers, w)
	return w
}

func (s *searcher) putWorker(w *wctx) {
	s.mu.Lock()
	s.idle = append(s.idle, w)
	s.mu.Unlock()
}

// row returns node j's row: its hot row, or once sealed its spill
// record read into rec, a record buffer of the caller's. Safe for
// concurrent use during expansion: rows and sealed records are
// immutable then, and the spill read path is lock-free.
func (s *searcher) row(j int32, rec []byte) ([]byte, error) {
	if j >= s.sealed {
		return s.rows.at(int(j)), nil
	}
	return s.store.spill.read(j, rec)
}

// loadState materializes node j into st through w's interner and
// parent record buffer.
func (s *searcher) loadState(w *wctx, j int32, st *state) error {
	row, err := s.row(j, w.prow)
	if err != nil {
		return err
	}
	s.lay.materialize(w.in, row, st)
	return nil
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
			if err := s.sealNode(idx); err != nil {
				return err
			}
		}
		s.sealed = end
		s.sealedLayer++
		sealedAny = true
	}
	if sealedAny {
		s.rows.dropBelow(int(s.sealed))
		return s.store.spill.finishBatch()
	}
	return nil
}

// sealNode moves one node's row to the spill tier and drops its hot
// index entry. The node keeps all its search bookkeeping — only the
// row leaves RAM.
func (s *searcher) sealNode(idx int32) error {
	row := s.rows.at(int(idx))
	h := s.lay.hash(s.seq.in, row)
	s.store.removeHot(h, idx)
	if err := s.store.spill.add(h, idx, row); err != nil {
		return err
	}
	s.hotBytes -= s.stateEst
	return nil
}

// expandChunk is how many frontier nodes an expanding goroutine takes
// at a time: enough to amortize handing out contexts, few enough that a
// layer of a few hundred nodes still spreads over every worker (a proof
// has hundreds of such layers) and cancellation lands mid-layer.
const expandChunk = 8

// run explores the product state space breadth-first. Each layer is
// expanded in parallel (par.ForChunksCtx over the frontier, results in
// slot order) and merged sequentially, so state numbering, verdicts and
// counts are identical at any worker count.
func (s *searcher) run() error {
	w := s.seq
	init := s.m.initialState()
	en, err := s.m.enabledMask(w.ec, init)
	if err != nil {
		return err
	}
	w.rows = make([]byte, s.lay.size)
	s.lay.rowOf(w.in, w.rows, init)
	if _, err := s.admit(&succOut{
		via: step{proc: -1, drop: -1}, hash: s.lay.hash(w.in, w.rows), existing: -1,
		enabled: en, open: s.m.open(init),
	}, -1, w); err != nil {
		return err
	}
	w.rows = w.rows[:0]
	s.layerEnds = append(s.layerEnds, int32(s.count()))

	for len(s.frontier) > 0 && s.incomplete == "" {
		s.depth++
		if s.m.cfg.MaxDepth > 0 && int(s.depth) > s.m.cfg.MaxDepth {
			s.incomplete = fmt.Sprintf("depth bound %d reached", s.m.cfg.MaxDepth)
			break
		}
		layer := s.frontier
		s.frontier = s.spare[:0]
		if cap(s.results) < len(layer) {
			s.results = make([]expandOut, len(layer))
		}
		results := s.results[:len(layer)]
		if err := par.ForChunksCtx(s.ctx, len(layer), s.m.cfg.Workers, expandChunk, func(lo, hi int) {
			w := s.getWorker()
			for i := lo; i < hi; i++ {
				results[i] = s.expand(w, layer[i])
			}
			s.putWorker(w)
		}); err != nil {
			// Canceled mid-layer: nothing is merged, and the search ends.
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
		for _, w := range s.workers {
			w.succs = w.succs[:0]
			w.rows = w.rows[:0]
		}
		clear(results)
		s.spare = layer
		if s.incomplete == "" {
			s.layerEnds = append(s.layerEnds, int32(s.count()))
			if err := s.maybeSpill(); err != nil {
				return err
			}
		}
		if p := s.m.cfg.Progress; p != nil {
			p(s.count(), int(s.depth))
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
func (s *searcher) expand(w *wctx, idx int32) (out expandOut) {
	n := s.node(idx)
	m, lay := s.m, s.lay
	out = expandOut{maskUsed: n.pendingMask, tickUsed: n.needsTick, w: w, lo: int32(len(w.succs))}
	defer func() { out.hi = int32(len(w.succs)) }()
	// A sealed node re-opened by fold expands from its spill record's
	// row exactly as a hot node does from its stored row.
	prow, err := s.row(idx, w.prow)
	if err != nil {
		out.err = err
		return out
	}
	lay.materialize(w.in, prow, w.cur)
	cur := w.cur
	// disallowed = the node's effective sleep set relative to enabled.
	disallowed := n.enabled &^ (n.pendingMask | n.explored)
	var earlier uint32
	for p := 0; p < len(m.progs); p++ {
		bit := uint32(1) << uint(p)
		if n.pendingMask&bit == 0 {
			continue
		}
		res, err := m.exec(w.ec, cur, w.norm, p)
		if err != nil {
			out.err = err
			return out
		}
		sleep := (disallowed | n.explored | earlier) & m.indep[p]
		earlier |= bit
		lay.build(w.in, w.nrow, prow, w.norm)
		if err := s.emit(w, step{proc: int8(p), drop: -1}, w.norm, w.nrow, sleep, res.conflicts); err != nil {
			out.err = err
			return out
		}
		if cur.budget > 0 {
			for di, d := range m.drops {
				if !dropApplies(d, res.commits) {
					continue
				}
				m.dropVariant(cur, w.norm, w.alt, di)
				lay.build(w.in, w.arow, w.nrow, w.alt)
				// Conflicts belong to the shared segment and are already
				// reported on the normal successor.
				if err := s.emit(w, step{proc: int8(p), drop: int16(di)}, w.alt, w.arow, sleep, nil); err != nil {
					out.err = err
					return out
				}
			}
		}
	}
	if n.needsTick {
		if clocks, ok := m.tick(cur, w.alt); ok {
			lay.build(w.in, w.arow, prow, w.alt)
			// Time advance interacts with every timer: no sleep carries over.
			if err := s.emit(w, step{proc: -1, drop: -1, tick: clocks}, w.alt, w.arow, 0, nil); err != nil {
				out.err = err
				return out
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

// emit hashes one successor's row and pre-checks the frozen store. On
// a hit the existing node index is recorded and the (now redundant)
// enabled-mask evaluation skipped entirely. On a miss the row is kept
// in the worker's rows for the merge's re-check.
func (s *searcher) emit(w *wctx, via step, st *state, row []byte, sleep uint32, conflicts []string) error {
	h := s.lay.hash(w.in, row)
	j, ok, err := s.lookup(w, h, row)
	if err != nil {
		return err
	}
	if ok {
		w.succs = append(w.succs, succOut{
			via: via, hash: h, existing: j, sleep: sleep, conflicts: conflicts,
		})
		return nil
	}
	en, err := s.m.enabledMask(w.ec, st)
	if err != nil {
		return err
	}
	off := len(w.rows)
	w.rows = append(w.rows, row...)
	w.succs = append(w.succs, succOut{
		via: via, hash: h, existing: -1, row: int32(off),
		enabled: en, open: s.m.open(st), sleep: sleep, conflicts: conflicts,
	})
	return nil
}

// lookup finds the stored node whose state equals the probe row's. It
// scans h's probe run in the hot table up to the first empty slot, and
// confirms each slot whose tag matches h's against that node's row
// (rowLayout.sameKey); the spill tier, when the Bloom filter lets the
// probe through, confirms its candidates' rows the same way.
// The error is always nil without a spill tier; with one, it surfaces
// torn or corrupt spill files.
func (s *searcher) lookup(w *wctx, h uint64, probe []byte) (int32, bool, error) {
	st := s.store
	for i := h >> st.shift; st.slots[i] != 0; i = st.next(i) {
		if e := st.slots[i]; e>>32 == h>>32 && s.confirm(w, h, probe, slotNode(e)) {
			return slotNode(e), true, nil
		}
	}
	// A hash living in the hot tier does not preclude a same-hash
	// sealed state: the tiers split by node age, not by hash.
	if sp := st.spill; sp != nil {
		return sp.lookup(s.lay, w.in, h, probe, w.crow, st.lossy)
	}
	return 0, false, nil
}

// confirm reports whether hot node j holds the probe's state: its row
// equals the probe row up to keyID, or, in lossy mode, its row hashes
// to h — a match on the tag alone is never a hit.
func (s *searcher) confirm(w *wctx, h uint64, probe []byte, j int32) bool {
	row := s.rows.at(int(j))
	if s.store.lossy {
		return s.lay.hash(w.in, row) == h
	}
	return s.lay.sameKey(w.in, probe, row)
}

// merge folds one expansion into the store, in deterministic order.
// The node's queue flag is only finalized after all successors are
// admitted: a re-arrival (possibly a self-loop) can hand the node fresh
// pending bits mid-merge, and it must be re-queued for them.
func (s *searcher) merge(idx int32, out expandOut) error {
	if out.err != nil {
		return out.err
	}
	n := s.node(idx)
	n.explored |= out.maskUsed
	n.pendingMask &^= out.maskUsed
	if out.tickUsed {
		n.needsTick = false
	}
	for i := out.lo; i < out.hi; i++ {
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
		if n.open && s.node(j).open {
			s.edges = append(s.edges, edge{from: idx, to: j, via: sc.via})
		}
	}
	n.queued = n.pendingMask != 0 || n.needsTick
	if n.queued {
		s.frontier = append(s.frontier, idx)
	}
	return nil
}

// admit stores a successor (or folds a re-arrival into the existing
// node) and classifies terminal and quiescent states. parent is -1 for
// the initial state. A pre-checked hit folds directly; a miss is
// re-checked against the store because an earlier merge slot of the
// same layer may have admitted the state already.
func (s *searcher) admit(sc *succOut, parent int32, w *wctx) (int32, error) {
	if sc.existing >= 0 {
		s.fold(sc.existing, sc.sleep)
		return sc.existing, nil
	}
	row := w.rows[sc.row : int(sc.row)+s.lay.size]
	ex, ok, err := s.lookup(s.seq, sc.hash, row)
	if err != nil {
		return 0, err
	}
	if ok {
		s.fold(ex, sc.sleep)
		return ex, nil
	}
	j := int32(s.count())
	depth := int32(0)
	if parent >= 0 {
		depth = s.node(parent).depth + 1
	}
	nn := &s.nodes.add()[0]
	*nn = node{
		parent: parent, via: sc.via, depth: depth,
		enabled: sc.enabled, open: sc.open,
		pendingMask: sc.enabled &^ sc.sleep,
	}
	copy(s.rows.add(), row)
	s.store.insert(sc.hash, j)
	s.hotBytes += s.stateEst
	mixed := bloomMix(sc.hash)
	s.fpXor ^= mixed
	s.fpSum += mixed
	if s.m.cfg.MaxStates > 0 && s.count() > s.m.cfg.MaxStates {
		s.incomplete = fmt.Sprintf("state bound %d reached", s.m.cfg.MaxStates)
		return j, nil
	}
	if sc.enabled == 0 {
		hasTimer := false
		for p := range s.m.progs {
			if ps := s.lay.rowProc(row, p); ps.blocked && !ps.fin && ps.rem > 0 {
				hasTimer = true
				break
			}
		}
		nn.needsTick = hasTimer
		s.lay.materialize(s.seq.in, row, s.seq.cur)
		s.classifyQuiet(j, s.seq.cur, hasTimer)
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
	old := s.node(j)
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
	nNodes := s.count()
	off := make([]int32, nNodes+1)
	for _, e := range s.edges {
		off[e.from+1]++
	}
	for n := 0; n < nNodes; n++ {
		off[n+1] += off[n]
	}
	edgeIdx := make([]int32, len(s.edges))
	fill := append([]int32(nil), off[:nNodes]...)
	for i, e := range s.edges {
		edgeIdx[fill[e.from]] = int32(i)
		fill[e.from]++
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int8, nNodes)
	type frameT struct {
		node int32
		next int
		in   int // edge index that entered this node, -1 for roots
	}
	for root := 0; root < nNodes; root++ {
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
				st := s.seq.cur
				if err := s.loadState(s.seq, to, st); err != nil {
					return err
				}
				desc := s.m.describeState(st)
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
	for i := node; i > 0; i = s.node(i).parent {
		steps = append(steps, s.node(i).via)
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return steps
}
