package verify

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/spec"
)

// maxProcs bounds the number of processes so enabled/sleep sets fit a
// uint32 mask.
const maxProcs = 30

// maxSegmentSteps bounds the instructions one atomic segment may
// execute (a runaway zero-delay loop would otherwise hang the checker).
const maxSegmentSteps = 200_000

// machine is the product system: one program per process plus the
// global storage layout and the bus-line bookkeeping the checks need.
type machine struct {
	sys   *spec.System
	cfg   Config
	progs []*program
	// Global storage slots, the simulator's (sim.Engine.Globals):
	// sys.Globals first, then module variables in module order, signals
	// and shared variables side by side.
	globals []*spec.Variable
	gslot   map[*spec.Variable]int
	gname   []string // "Module.Var" for module variables, plain name for globals
	buses   []*busModel
	bySlot  map[int]*busModel
	drops   []dropTarget
	nTrack  int // total tracked bus fields (lastW width)
	// indep[p] has bit q set when p and q have disjoint-enough global
	// footprints to commute (neither writes what the other touches).
	indep  []uint32
	fgMask uint32 // non-server processes
	// Delivery check inputs (from the golden fault-free simulation).
	expected   []sim.Value // per gslot; nil entries unchecked
	abortSlots []int
	// lay is the geometry of a stored state's row (row.go).
	lay rowLayout
}

// busModel is the checker's view of one generated bus: which record
// fields carry the handshake strobes and the shared payload lines.
type busModel struct {
	bus  *spec.Bus
	sig  *spec.Variable
	slot int
	rec  spec.RecordType
	// Field indexes into the record; -1 when absent.
	start, done, data, id int
	// trackBase is this bus's offset into state.lastW; trackOf maps a
	// tracked field index to its offset.
	trackBase int
	trackOf   map[int]int
	strobe    map[int]bool
}

// dropTarget is one fault-injection point: a droppable transition of a
// tracked bus field.
type dropTarget struct {
	bus   *busModel
	field int
	name  string // "B.START"
}

// program is one process as the checker steps it: the simulator's
// compiled plain program, plus what the checker derives from it once.
type program struct {
	compiled *sim.Program
	beh      *spec.Behavior
	code     []sim.Instr
	locals   []*spec.Variable
	// fields[pc] is the bus-record field bits the OpAssign at pc drives
	// (zero for every other instruction): the driver-conflict check's
	// input.
	fields []uint64
	// reads/writes are the program's global footprint, per global slot,
	// for the independence relation of the partial-order reduction. An
	// assigned global is read as well as written.
	reads, writes []bool
}

// newMachine builds the product system from eng, the simulator compiled
// for sys, so the checker steps the very programs the simulator runs.
func newMachine(sys *spec.System, cfg Config, eng *sim.Engine) (*machine, error) {
	m := &machine{
		sys:     sys,
		cfg:     cfg,
		globals: eng.Globals(),
		gslot:   make(map[*spec.Variable]int),
		bySlot:  make(map[int]*busModel),
	}
	for _, b := range sys.Buses {
		switch b.Protocol {
		case spec.FullHandshake, spec.HalfHandshake:
		default:
			return nil, fmt.Errorf("verify: bus %s uses protocol %v; the model checker supports full and half handshakes only", b.Name, b.Protocol)
		}
	}
	modName := make(map[*spec.Variable]string)
	for _, mod := range sys.Modules {
		for _, v := range mod.Variables {
			modName[v] = mod.Name + "." + v.Name
		}
	}
	for i, v := range m.globals {
		m.gslot[v] = i
		name, ok := modName[v]
		if !ok {
			name = v.Name
		}
		m.gname = append(m.gname, name)
	}

	dropFields := cfg.DropFields
	if len(dropFields) == 0 {
		dropFields = []string{"START", "DONE"}
	}
	for _, b := range sys.Buses {
		if b.Signal == nil {
			continue
		}
		slot, ok := m.gslot[b.Signal]
		if !ok {
			return nil, fmt.Errorf("verify: bus %s signal %s is not a global", b.Name, b.Signal.Name)
		}
		rec, ok := b.Signal.Type.(spec.RecordType)
		if !ok {
			continue
		}
		bm := &busModel{
			bus: b, sig: b.Signal, slot: slot, rec: rec,
			start: -1, done: -1, data: -1, id: -1,
			trackBase: m.nTrack,
			trackOf:   make(map[int]int),
			strobe:    make(map[int]bool),
		}
		for i, f := range rec.Fields {
			switch f.Name {
			case "START":
				bm.start = i
			case "DONE":
				bm.done = i
			case "DATA":
				bm.data = i
			case "ID":
				bm.id = i
			default:
				continue
			}
			bm.trackOf[i] = len(bm.trackOf)
			bm.strobe[i] = f.Name == "START" || f.Name == "DONE"
		}
		m.nTrack += len(bm.trackOf)
		m.buses = append(m.buses, bm)
		m.bySlot[slot] = bm
		for _, name := range dropFields {
			for i, f := range rec.Fields {
				if f.Name == name {
					if _, tracked := bm.trackOf[i]; !tracked {
						return nil, fmt.Errorf("verify: drop field %s.%s is not a tracked bus line", b.Signal.Name, name)
					}
					m.drops = append(m.drops, dropTarget{bus: bm, field: i, name: b.Signal.Name + "." + name})
				}
			}
		}
	}

	progs := eng.Programs()
	if len(progs) == 0 {
		return nil, fmt.Errorf("verify: system has no behaviors")
	}
	if len(progs) > maxProcs {
		return nil, fmt.Errorf("verify: %d processes exceed the checker's limit of %d", len(progs), maxProcs)
	}
	for i, sp := range progs {
		prog, err := m.newProgram(sp)
		if err != nil {
			return nil, fmt.Errorf("verify: behavior %s: %w", sp.Behavior().Name, err)
		}
		m.progs = append(m.progs, prog)
		if !prog.beh.Server {
			m.fgMask |= 1 << uint(i)
		}
	}
	m.buildIndependence()
	nLocals := make([]int, len(m.progs))
	for p, prog := range m.progs {
		nLocals[p] = len(prog.locals)
	}
	m.lay = newRowLayout(len(m.globals), nLocals, m.nTrack)
	for _, prog := range m.progs {
		init := make([]sim.Value, len(prog.locals))
		for i, v := range prog.locals {
			init[i] = sim.InitialValue(v)
		}
		m.lay.init = append(m.lay.init, init)
	}
	return m, nil
}

// newProgram derives the checker's view of one compiled program, and
// refuses the waits the checker cannot model.
func (m *machine) newProgram(sp *sim.Program) (*program, error) {
	code := sp.Code()
	prog := &program{
		compiled: sp,
		beh:      sp.Behavior(),
		code:     code,
		locals:   sp.Locals(),
		fields:   make([]uint64, len(code)),
		reads:    make([]bool, len(m.globals)),
		writes:   make([]bool, len(m.globals)),
	}
	for _, gi := range sp.GlobalRefs() {
		prog.reads[gi] = true
	}
	for pc := range code {
		in := &code[pc]
		switch in.Op() {
		case sim.OpAssign:
			space, idx := in.Dest()
			if space == sim.LocalSlot {
				continue
			}
			prog.writes[idx] = true
			if bm := m.bySlot[idx]; bm != nil {
				prog.fields[pc] = bm.fieldMask(in.Field())
			}
		case sim.OpWait:
			w := in.Wait()
			switch {
			case len(w.On) > 0:
				return nil, errors.New("'wait on' sensitivity lists are not supported by the model checker " +
					"(fixed-delay and hardwired-port buses are rate-matched by construction; simulate them instead)")
			case w.Until == nil && !w.HasFor:
				return nil, errors.New("'wait' forever cannot be model-checked (the process would never terminate)")
			case w.HasFor && w.For < 0:
				return nil, fmt.Errorf("negative wait duration %d", w.For)
			}
			if w.TimedOut != nil {
				if space, idx := in.Flag(); space == sim.SharedSlot {
					prog.writes[idx] = true
				}
			}
		}
	}
	return prog, nil
}

// fieldMask returns the record-field bits a store into the bus signal
// drives, given the field its lvalue selects (sim.Instr.Field): every
// tracked field when it selects none, else that field.
func (bm *busModel) fieldMask(field string) uint64 {
	var mask uint64
	if field == "" {
		for f := range bm.trackOf {
			mask |= 1 << uint(f)
		}
		return mask
	}
	for i, f := range bm.rec.Fields {
		if f.Name == field {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// buildIndependence computes the static commutation relation from
// whole-program global footprints: p and q are independent when
// neither's writes intersect the other's reads or writes. Coarse but
// sound — a finer per-segment analysis would only shrink the state
// count further.
func (m *machine) buildIndependence() {
	n := len(m.progs)
	m.indep = make([]uint32, n)
	if m.cfg.NoReduction {
		// Empty independence relation: sleep sets stay empty and every
		// interleaving is explored.
		return
	}
	conflict := func(a, b *program) bool {
		for g := range m.globals {
			if a.writes[g] && (b.reads[g] || b.writes[g]) || b.writes[g] && a.reads[g] {
				return true
			}
		}
		return false
	}
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if p != q && !conflict(m.progs[p], m.progs[q]) {
				m.indep[p] |= 1 << uint(q)
			}
		}
	}
}

// state is one vertex of the product state space, unpacked for
// execution: the searcher stores rows (row.go) and materializes them
// into states it owns, one parent and a few successors per worker, so
// a state's slices are never shared with another state. Values are
// shared freely: the executor never mutates one in place (bits.Vector
// operations are persistent and container updates rebuild the
// containers along the path), and the value table hands out the same
// immutable values to every state that holds them.
type state struct {
	g []sim.Value
	// l holds each process's locals; a nil local was never written
	// (sim.Program.InitialLocals).
	l [][]sim.Value
	// ps packs each process's scalar bookkeeping.
	ps []procState
	// lastW records, per tracked bus field, the last process that drove
	// it (-1 none) — the state the driver-conflict check needs.
	lastW  []int8
	budget int16 // remaining drop-fault budget
	// lay is the machine's row layout, nil for a state built by hand
	// (which has no nil locals).
	lay *rowLayout
	// written marks, in row order, the value slots stored since the
	// state was materialized or copied: the slots whose ids a successor
	// row must intern.
	written []uint64
}

// procState is one process's control scalars.
type procState struct {
	pc      int32
	blocked bool
	fin     bool
	// rem is the remaining clocks of a blocked process's bounded wait
	// (-1 for none). Relative deadlines, not absolute time: the
	// quiescent tick decrements every positive counter by the minimum,
	// which preserves the simulator's exact timeout ordering.
	rem int64
}

// newState allocates a state shaped like the machine's.
func (m *machine) newState() *state {
	st := &state{
		g:       make([]sim.Value, len(m.globals)),
		l:       make([][]sim.Value, len(m.progs)),
		ps:      make([]procState, len(m.progs)),
		lastW:   make([]int8, m.nTrack),
		lay:     &m.lay,
		written: make([]uint64, (m.lay.nIDs+63)/64),
	}
	for p, prog := range m.progs {
		st.l[p] = make([]sim.Value, len(prog.locals))
	}
	return st
}

// initialState is the system before any process runs: locals as the
// simulator starts them, so a local that is never written stays nil.
func (m *machine) initialState() *state {
	st := m.newState()
	for i, v := range m.globals {
		st.g[i] = sim.InitialValue(v)
	}
	for p, prog := range m.progs {
		copy(st.l[p], prog.compiled.InitialLocals())
		st.ps[p].rem = -1
	}
	for i := range st.lastW {
		st.lastW[i] = -1
	}
	st.budget = int16(m.cfg.MaxDrops)
	return st
}

// copyFrom makes st a copy of src with no slot marked written.
func (st *state) copyFrom(src *state) {
	copy(st.g, src.g)
	for p := range st.l {
		copy(st.l[p], src.l[p])
	}
	copy(st.ps, src.ps)
	copy(st.lastW, src.lastW)
	st.budget = src.budget
	clear(st.written)
}

// setG stores global slot i and marks it written.
func (st *state) setG(i int, v sim.Value) {
	st.g[i] = v
	st.written[i>>6] |= 1 << uint(i&63)
}

// setL stores process p's local i and marks it written.
func (st *state) setL(p, i int, v sim.Value) {
	st.l[p][i] = v
	j := st.lay.lbase[p] + i
	st.written[j>>6] |= 1 << uint(j&63)
}

// verifyFail is panicked by a Frame on runtime errors and recovered at
// the segment boundary.
type verifyFail struct{ err error }

// commitEvent is one signal commit of a segment whose value actually
// changed, recorded for counterexample rendering and drop enumeration.
type commitEvent struct {
	slot int
	bus  *busModel // nil for plain signals
	// changed is a bitmask of the changed record field indexes (bus
	// signals; fields past 63 are untracked, like checkDrivers), or any
	// nonzero marker for a changed plain signal.
	changed uint64
	old     sim.Value
	new     sim.Value
}

// segResult is the outcome of running one process for one atomic
// segment (from its current wait to its next blocking wait).
type segResult struct {
	commits   []commitEvent
	conflicts []string // driver-conflict violation messages
}

// pendingWrite is one signal slot's accumulated segment write: the
// value visible to later writes (not reads) of the same segment, plus
// the record-field bits the segment's assignments drove. A segment
// touches at most a handful of slots, so a linear slice beats the maps
// this replaced.
type pendingWrite struct {
	slot   int
	val    sim.Value
	fields uint64
}

// execCtx is a worker's reusable segment-execution context: the pending
// and commit scratch buffers plus one sim.Frame per process, so repeated
// exec/evalCond calls allocate nothing beyond the values they store. Not
// safe for concurrent use — each worker (and each sequential caller)
// owns its own.
type execCtx struct {
	m       *machine
	st      *state
	p       int
	pending []pendingWrite
	res     segResult
	frames  []*sim.Frame
}

func (m *machine) newExecCtx() *execCtx {
	ec := &execCtx{m: m}
	fail := func(format string, args ...any) {
		panic(verifyFail{fmt.Errorf(format, args...)})
	}
	for _, prog := range m.progs {
		ec.frames = append(ec.frames, sim.NewFrame(prog.compiled, fail))
	}
	return ec
}

// bind points process p's frame at st's storage.
func (ec *execCtx) bind(st *state, p int) *sim.Frame {
	ec.st, ec.p = st, p
	fr := ec.frames[p]
	fr.Locals, fr.Globals = st.l[p], st.g
	return fr
}

// pendingFor returns signal slot gi's pending write, starting one from
// the committed value. Writers build on their own pending value so a
// later field update cannot revert an earlier one.
func (ec *execCtx) pendingFor(gi int) *pendingWrite {
	for i := range ec.pending {
		if ec.pending[i].slot == gi {
			return &ec.pending[i]
		}
	}
	ec.pending = append(ec.pending, pendingWrite{slot: gi, val: ec.st.g[gi]})
	return &ec.pending[len(ec.pending)-1]
}

// setFlag stores a wait's timeout flag, when it has one, in the slot
// the simulator stores it in: a process local or a shared variable.
func (ec *execCtx) setFlag(in *sim.Instr, timedOut bool) {
	v := in.Wait().TimedOut
	if v == nil {
		return
	}
	val := sim.Coerce(sim.BoolVal{V: timedOut}, v.Type)
	if space, idx := in.Flag(); space == sim.SharedSlot {
		ec.st.setG(idx, val)
	} else {
		ec.st.setL(ec.p, idx, val)
	}
}

// commit applies the pending signal writes slot-ordered, as the
// simulator commits: insertion sort — the pending list rarely exceeds
// two slots.
func (ec *execCtx) commit() {
	m, st, pending := ec.m, ec.st, ec.pending
	for i := 1; i < len(pending); i++ {
		for j := i; j > 0 && pending[j].slot < pending[j-1].slot; j-- {
			pending[j], pending[j-1] = pending[j-1], pending[j]
		}
	}
	for i := range pending {
		pw := &pending[i]
		gi := pw.slot
		old, nv := st.g[gi], pw.val
		bm := m.bySlot[gi]
		cev := commitEvent{slot: gi, bus: bm, old: old, new: nv}
		if bm != nil {
			ov, okO := old.(sim.RecordVal)
			nvv, okN := nv.(sim.RecordVal)
			if okO && okN && len(ov.Fields) == len(nvv.Fields) {
				for f := 0; f < len(ov.Fields) && f < 64; f++ {
					if !ov.Fields[f].Equal(nvv.Fields[f]) {
						cev.changed |= 1 << uint(f)
					}
				}
				m.checkDrivers(st, ec.p, bm, ov, nvv, pw.fields, &ec.res)
			}
		} else if !old.Equal(nv) {
			cev.changed = 1
		}
		st.setG(gi, nv)
		if cev.changed != 0 {
			ec.res.commits = append(ec.res.commits, cev)
		}
	}
}

// exec runs process p from parent for one atomic segment, writing the
// successor into st (a state distinct from parent, overwritten whole)
// and marking the slots the segment stores. The segment mirrors one
// simulator delta slice: signal writes accumulate in a pending buffer
// invisible to reads, waits whose condition already holds are passed
// through inline, and everything commits at the next blocking wait (or
// at process end). parent is not mutated. The returned result lives
// inside ec — its commits backing is reused by the ctx's next exec, so
// callers must consume it first (conflicts are freshly allocated and
// safe to retain).
func (m *machine) exec(ec *execCtx, parent, st *state, p int) (res *segResult, err error) {
	st.copyFrom(parent)
	prog := m.progs[p]
	fr := ec.bind(st, p)
	ec.pending = ec.pending[:0]
	ec.res = segResult{commits: ec.res.commits[:0]}
	res = &ec.res

	defer func() {
		if r := recover(); r != nil {
			vf, ok := r.(verifyFail)
			if !ok {
				panic(r)
			}
			res, err = nil, fmt.Errorf("verify: process %s: %w", prog.beh.Name, vf.err)
		}
	}()

	// Resume a blocked process: decide (again) whether its wait ended by
	// condition or by timeout, mirroring the simulator's wake logic.
	if st.ps[p].fin {
		return nil, fmt.Errorf("verify: process %s already finished", prog.beh.Name)
	}
	if st.ps[p].blocked {
		in := &prog.code[st.ps[p].pc]
		if in.Op() != sim.OpWait {
			return nil, fmt.Errorf("verify: process %s blocked on non-wait instruction", prog.beh.Name)
		}
		condMet := in.Wait().Until != nil && fr.Until(in)
		if !condMet && st.ps[p].rem != 0 {
			return nil, fmt.Errorf("verify: process %s resumed while not enabled", prog.beh.Name)
		}
		ec.setFlag(in, !condMet)
		st.ps[p].blocked = false
		st.ps[p].rem = -1
		st.ps[p].pc++
	}

	steps := 0
	for {
		steps++
		if steps > maxSegmentSteps {
			return nil, fmt.Errorf("verify: process %s executed %d instructions without yielding (runaway zero-delay loop?)", prog.beh.Name, steps)
		}
		pc := st.ps[p].pc
		in := &prog.code[pc]
		switch in.Op() {
		case sim.OpEnd:
			st.ps[p].fin = true
			ec.commit()
			return res, nil
		case sim.OpJump:
			st.ps[p].pc = in.Target()
		case sim.OpBranch:
			if fr.Cond(in) {
				st.ps[p].pc++
			} else {
				st.ps[p].pc = in.Target()
			}
		case sim.OpClear:
			slot, zero := in.Clear()
			st.setL(p, slot, zero)
			st.ps[p].pc++
		case sim.OpAssign:
			// Signal stores accumulate in the pending buffer (delta
			// semantics); variable stores write through. Apply never
			// mutates the value it rebuilds, so states may share values,
			// and it refuses a store into a never-written local exactly
			// as the simulator does.
			val := fr.RHS(in)
			switch space, idx := in.Dest(); space {
			case sim.SignalSlot:
				pw := ec.pendingFor(idx)
				pw.val = fr.Apply(in, pw.val, val)
				pw.fields |= prog.fields[pc]
			case sim.SharedSlot:
				st.setG(idx, fr.Apply(in, st.g[idx], val))
			default:
				st.setL(p, idx, fr.Apply(in, st.l[p][idx], val))
			}
			st.ps[p].pc++
		case sim.OpWait:
			w := in.Wait()
			if w.Until != nil && fr.Until(in) {
				// Immediate pass-through without suspending, like the
				// simulator's in-slice check against committed values.
				ec.setFlag(in, false)
				st.ps[p].pc++
				continue
			}
			st.ps[p].blocked = true
			if w.HasFor {
				st.ps[p].rem = w.For
			} else {
				st.ps[p].rem = -1
			}
			ec.commit()
			return res, nil
		default:
			return nil, fmt.Errorf("verify: process %s: bad opcode %d", prog.beh.Name, in.Op())
		}
	}
}

// dropVariant derives into ns the faulty sibling of a normal
// successor: the wire lost the dropped field's edge, so the committed
// field reverts to its pre-segment value and the fault budget shrinks,
// while the writer's continuation (decided before the commit, exactly
// like a simulator DropEvent fault) stands. Only the bus slot is marked
// written: ns's row derives from norm's.
func (m *machine) dropVariant(parent, norm, ns *state, dropField int) {
	d := m.drops[dropField]
	slot := d.bus.slot
	ns.copyFrom(norm)
	nv, ok := ns.g[slot].(sim.RecordVal)
	if !ok {
		return
	}
	ov := parent.g[slot].(sim.RecordVal)
	fields := append([]sim.Value(nil), nv.Fields...)
	fields[d.field] = ov.Fields[d.field]
	ns.setG(slot, sim.RecordVal{Type: nv.Type, Fields: fields})
	ns.budget--
}

// checkDrivers applies the driver mutual-exclusion rules at commit
// time, before lastW is updated to the committing process:
//
//   - a strobe (START/DONE) driven to a nonzero value by p while
//     asserted by another process is a conflict — two drivers
//     asserting one wire. Driving a strobe to zero is a release, which
//     any process may perform: the robust dispatcher deliberately
//     clears stale DONE/NACK lines on re-arm, and a watchdog clearing
//     a sibling server's leftover strobe is recovery, not contention;
//   - DATA or ID written by p while a transaction opened by another
//     process (its START still high) is in flight clobbers lines the
//     opener is entitled to.
//
// Writes are tracked even when the value does not change: driving an
// already-high strobe high is still a second driver.
func (m *machine) checkDrivers(st *state, p int, bm *busModel, old, nv sim.RecordVal, written uint64, res *segResult) {
	name := func(f int) string { return bm.sig.Name + "." + bm.rec.Fields[f].Name }
	for f := 0; f < len(bm.rec.Fields) && f < 64; f++ {
		if written&(1<<uint(f)) == 0 {
			continue
		}
		ti, tracked := bm.trackOf[f]
		if !tracked {
			continue
		}
		li := bm.trackBase + ti
		last := st.lastW[li]
		if bm.strobe[f] {
			if last >= 0 && int(last) != p && !valIsZero(old.Fields[f]) && !valIsZero(nv.Fields[f]) {
				res.conflicts = append(res.conflicts, fmt.Sprintf(
					"driver conflict on %s: %s drives it while %s holds it asserted",
					name(f), m.progs[p].beh.Name, m.progs[last].beh.Name))
			}
		} else if bm.start >= 0 && !valIsZero(old.Fields[bm.start]) {
			sl := st.lastW[bm.trackBase+bm.trackOf[bm.start]]
			if sl >= 0 && int(sl) != p {
				res.conflicts = append(res.conflicts, fmt.Sprintf(
					"driver conflict on %s: %s drives it during a transaction opened by %s",
					name(f), m.progs[p].beh.Name, m.progs[sl].beh.Name))
			}
		}
		st.lastW[li] = int8(p)
	}
}

func valIsZero(v sim.Value) bool {
	switch v := v.(type) {
	case sim.VecVal:
		return v.V.IsZero()
	case sim.IntVal:
		return v.V == 0
	case sim.BoolVal:
		return !v.V
	}
	return false
}

// enabledMask computes which processes may take a transition from st: a
// runnable process, a blocked process whose wait condition holds, or a
// blocked process whose bounded wait has expired (rem == 0).
func (m *machine) enabledMask(ec *execCtx, st *state) (uint32, error) {
	var mask uint32
	for p, prog := range m.progs {
		if st.ps[p].fin {
			continue
		}
		if !st.ps[p].blocked {
			mask |= 1 << uint(p)
			continue
		}
		in := &prog.code[st.ps[p].pc]
		if in.Wait().Until != nil {
			ok, err := m.evalCond(ec, st, p, in)
			if err != nil {
				return 0, err
			}
			if ok {
				mask |= 1 << uint(p)
				continue
			}
		}
		if st.ps[p].rem == 0 {
			mask |= 1 << uint(p)
		}
	}
	return mask, nil
}

// evalCond evaluates the until condition of process p's wait in against
// st (reads only — a Frame never sees ec's pending buffer, so a ctx
// fresh from exec is safe to reuse here).
func (m *machine) evalCond(ec *execCtx, st *state, p int, in *sim.Instr) (ok bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			vf, isVF := r.(verifyFail)
			if !isVF {
				panic(r)
			}
			ok, err = false, fmt.Errorf("verify: process %s: %w", m.progs[p].beh.Name, vf.err)
		}
	}()
	return ec.bind(st, p).Until(in), nil
}

// tick advances quiescent time into ns: with no process enabled, the
// minimum positive remaining-clock counter elapses from every bounded
// wait. Deterministic — a single successor — so timeouts fire in exactly
// the relative order the simulator would fire them. It reports the
// clocks that passed, and false (ns untouched) when no timer runs.
func (m *machine) tick(st, ns *state) (int64, bool) {
	min := int64(-1)
	for p := range m.progs {
		if st.ps[p].blocked && !st.ps[p].fin && st.ps[p].rem > 0 {
			if min < 0 || st.ps[p].rem < min {
				min = st.ps[p].rem
			}
		}
	}
	if min < 0 {
		return 0, false
	}
	ns.copyFrom(st)
	for p := range m.progs {
		if ns.ps[p].blocked && !ns.ps[p].fin && ns.ps[p].rem > 0 {
			ns.ps[p].rem -= min
		}
	}
	return min, true
}

// open reports whether any tracked strobe is asserted — a transaction
// is in flight. The bounded-response liveness check looks for cycles
// that never leave open states.
func (m *machine) open(st *state) bool {
	for _, bm := range m.buses {
		rv, ok := st.g[bm.slot].(sim.RecordVal)
		if !ok {
			continue
		}
		for _, f := range [2]int{bm.start, bm.done} {
			if f >= 0 && !valIsZero(rv.Fields[f]) {
				return true
			}
		}
	}
	return false
}

// describeState renders a blocked-process summary plus the bus lines,
// mirroring sim.DeadlockError diagnostics.
func (m *machine) describeState(st *state) string {
	var waiting []string
	for p, prog := range m.progs {
		if st.ps[p].fin {
			continue
		}
		name := prog.beh.Name
		if prog.beh.Server {
			name += " (server)"
		}
		if st.ps[p].blocked {
			w := prog.code[st.ps[p].pc].Wait()
			desc := ""
			if w.Until != nil {
				desc = "until " + w.Until.String()
			}
			if w.HasFor {
				desc += fmt.Sprintf(" (rem %d)", st.ps[p].rem)
			}
			waiting = append(waiting, name+": wait "+strings.TrimSpace(desc))
		} else {
			waiting = append(waiting, name+": runnable")
		}
	}
	out := strings.Join(waiting, "; ")
	var lines []string
	for _, bm := range m.buses {
		rv, ok := st.g[bm.slot].(sim.RecordVal)
		if !ok {
			continue
		}
		for i, f := range bm.rec.Fields {
			if f.Name == "DATA" {
				continue
			}
			lines = append(lines, fmt.Sprintf("%s.%s=%s", bm.sig.Name, f.Name, rv.Fields[i]))
		}
	}
	if len(lines) > 0 {
		out += "; bus: " + strings.Join(lines, " ")
	}
	return out
}
