package sim

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/spec"
)

// Engine is the simulator: a reusable, pooled executor for one system.
// Behaviors are compiled to flat programs and every variable is
// resolved to a dense slot index once, at construction; each Run then
// borrows a runner from an internal pool, restores its slot arrays from
// the initial checkpoint (shared immutable templates), and executes the
// delta-cycle loop on the caller's goroutine — no channels, no per-run
// maps. A single simulation compiles once and runs once; fault
// campaigns compile once and run the same system 10⁵–10⁷ times, and
// resume most runs from checkpoints of the fault-free one.
//
// Everything a caller can observe — Clocks, Deltas, ProcessEnd,
// Finals, SignalEvents, the OnEvent/Mutate/Schedule hook sequences and
// error strings — is pinned, with and without a cost model, against
// reference traces frozen under testdata/classic (batch_test.go).
// Result.Steps and the MaxStepsPerSlice runaway guard count compiled
// instructions.
//
// Engine is safe for concurrent Run and Resume calls: runners are
// pooled and each call uses its own.
type Engine struct {
	sys *spec.System

	// globals are the global storage slots: sys.Globals, then each
	// module's variables in module order, shared variables and signals
	// side by side. sigIdx and sharedIdx map a variable of either kind
	// to its slot; sigSlots lists the signal slots in ascending order.
	globals   []*spec.Variable
	globInit  []Value
	sigIdx    map[*spec.Variable]int
	sharedIdx map[*spec.Variable]int
	sigSlots  []int32

	// finalKeys/finalSlots precompute the Result.Finals map: the
	// "Module.Var" key and global slot of every module variable, so
	// building a run's result concatenates no strings.
	finalKeys  []string
	finalSlots []int

	// recEscapes/bufUnsafe collect the compiler's container-escape
	// analysis; sigBufOK marks the record signals whose containers
	// provably never leave the kernel, so runners may drive them
	// through reusable double buffers instead of allocating a fresh
	// record per partial store.
	recEscapes map[*spec.Variable]bool
	arrEscapes map[*spec.Variable]bool
	bufUnsafe  bool
	sigBufOK   []bool

	// sigRecFields holds each record signal's declared field list (nil
	// for every other slot). A value whose RecordType.Fields IS this
	// slice (pointer-equal) provably has the declared layout, so a
	// buffered store may trust its compile-time field index.
	sigRecFields [][]spec.Field

	progs []*Program
	pool  sync.Pool

	// start is the initial state as a checkpoint: every run begins by
	// restoring it (or a checkpoint captured later in some run).
	start *Checkpoint
}

// NewEngine compiles the system. It returns an error if the system does
// not validate or uses a construct the compiler cannot lower: a
// recursive procedure or an expression the compiler has no op for (the
// error names either), or a non-lvalue assignment target.
func NewEngine(sys *spec.System) (*Engine, error) {
	if errs := sys.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("sim: invalid system: %w", errs[0])
	}
	e := &Engine{
		sys:        sys,
		sigIdx:     make(map[*spec.Variable]int),
		sharedIdx:  make(map[*spec.Variable]int),
		recEscapes: make(map[*spec.Variable]bool),
		arrEscapes: make(map[*spec.Variable]bool),
	}
	addVar := func(v *spec.Variable) {
		gi := len(e.globals)
		e.globals = append(e.globals, v)
		e.globInit = append(e.globInit, InitialValue(v))
		if v.Kind == spec.KindSignal {
			e.sigIdx[v] = gi
			e.sigSlots = append(e.sigSlots, int32(gi))
		} else {
			e.sharedIdx[v] = gi
		}
	}
	for _, g := range sys.Globals {
		addVar(g)
	}
	for _, m := range sys.Modules {
		for _, v := range m.Variables {
			addVar(v)
		}
	}
	for _, m := range sys.Modules {
		for _, v := range m.Variables {
			if idx, ok := e.sharedIdx[v]; ok {
				e.finalKeys = append(e.finalKeys, m.Name+"."+v.Name)
				e.finalSlots = append(e.finalSlots, idx)
			}
		}
	}
	for _, b := range sys.Behaviors() {
		prog, err := e.compile(b)
		if err != nil {
			return nil, fmt.Errorf("sim: compile: %w", err)
		}
		e.progs = append(e.progs, prog)
	}
	e.sigRecFields = make([][]spec.Field, len(e.globals))
	e.sigBufOK = make([]bool, len(e.globals))
	for _, gi := range e.sigSlots {
		v := e.globals[gi]
		if rt, ok := v.Type.(spec.RecordType); ok && len(rt.Fields) > 0 {
			e.sigRecFields[gi] = rt.Fields
			e.sigBufOK[gi] = !e.bufUnsafe && !e.recEscapes[v]
		}
	}
	// Element stores into never-aliased array variables may mutate the
	// container in place once the run owns it; decided only now, because
	// a shared array could escape in a behavior compiled later.
	for _, prog := range e.progs {
		for i := range prog.costCode {
			in := &prog.costCode[i]
			if e.bufUnsafe || in.op != OpAssign || in.lref.sp == SignalSlot || len(in.path) == 0 || in.path[0].kind != 0 {
				continue
			}
			if _, ok := in.base.Type.(spec.ArrayType); ok && !e.arrEscapes[in.base] {
				in.aOwn = true
			}
		}
		prog.code = stripCharges(prog.costCode)
	}
	e.start = e.initialCheckpoint()
	e.pool.New = func() any { return newRunner(e) }
	return e, nil
}

// System returns the system the engine was compiled for.
func (e *Engine) System() *spec.System { return e.sys }

// Globals returns the variables of the global slots: sys.Globals, then
// each module's variables in module order.
func (e *Engine) Globals() []*spec.Variable { return e.globals }

// Programs returns the compiled programs, one per behavior in
// sys.Behaviors() order. They are immutable and safe to share.
func (e *Engine) Programs() []*Program { return e.progs }

// Run executes the system to completion under cfg on a pooled runner:
// every non-server process finished, or an error (deadlock, runaway
// process, time limit, runtime fault).
func (e *Engine) Run(cfg Config) (*Result, error) { return e.run(e.start, cfg, nil) }

// RunCheckpointed is Run that also captures the run at evenly spaced
// delta-cycle boundaries, in run order and starting with the initial
// state: at every boundary of a run of up to MaxCheckpoints delta
// cycles, and between MaxCheckpoints/2 and MaxCheckpoints of them on a
// longer one. A failed run returns no checkpoints.
func (e *Engine) RunCheckpointed(cfg Config) (*Result, []*Checkpoint, error) {
	log := &checkpointLog{cps: []*Checkpoint{e.start}, stride: 1}
	res, err := e.run(e.start, cfg, log)
	if err != nil {
		return nil, nil, err
	}
	return res, log.cps, nil
}

// Resume runs cfg from cp instead of from the initial state. The result
// is the one a run from time 0 would give if it replayed the captured
// run up to cp: its Mutate hook mutates nothing before the boundary,
// its Schedule hook is a pure function of its arguments, and its
// MaxClocks and MaxStepsPerSlice admit the prefix. A stateful hook is
// the caller's to bring to the boundary (HookCalls says how far the
// captured run's hook got), and OnEvent sees only the events after it.
// cp must come from this engine, and a checkpoint past the initial
// state needs the cost model it was captured under.
func (e *Engine) Resume(cp *Checkpoint, cfg Config) (*Result, error) {
	if cp.e != e {
		return nil, errors.New("sim: checkpoint was captured on another engine")
	}
	if cp.deltas > 0 && cp.cost != cfg.Cost {
		return nil, errors.New("sim: checkpoint was captured under another cost model")
	}
	return e.run(cp, cfg, nil)
}

// run borrows a runner, restores cp and runs cfg to completion,
// capturing checkpoints into log when it is non-nil.
func (e *Engine) run(cp *Checkpoint, cfg Config, log *checkpointLog) (*Result, error) {
	r := e.pool.Get().(*runner)
	r.reset(cfg, cp)
	r.log = log
	res, err := r.run()
	r.log = nil
	e.pool.Put(r)
	return res, err
}

// bsignal is the runner-side delta state of one signal slot; its
// committed value lives in runner.glob.
type bsignal struct {
	pending Value // nil if no update scheduled this delta
	events  int64
	// skipMutate marks a pending update that came from a Mutation's
	// delayed re-commit, which must not pass through Config.Mutate
	// again.
	skipMutate bool
	// muteHook is set when a Mutation returned SkipSig: the hook
	// promised to never touch this signal, so flush stops calling it
	// for the rest of the run (cleared by reset).
	muteHook bool
	// pendingOwned marks a pending value whose top-level container was
	// freshly built by this run's own partial store (applyPath) and has
	// never been visible outside the runner: until flush hands it to
	// hooks or commits it, further single-level field stores may mutate
	// it in place instead of rebuilding the record. Handshake processes
	// drive individual bus record fields every delta, so this turns the
	// kernel's dominant allocation into a slot write.
	pendingOwned bool
}

// recFieldsOf returns v's field slice when v is a RecordVal whose type
// holds exactly the declared field list (pointer-equal slice), nil
// otherwise. Pointer equality proves the layout: every compile-time
// index and name derived from the declared type is valid for v.
func recFieldsOf(decl []spec.Field, v Value) []Value {
	if decl == nil {
		return nil
	}
	if rv, ok := v.(RecordVal); ok && len(rv.Type.Fields) > 0 && len(decl) > 0 && &rv.Type.Fields[0] == &decl[0] && len(rv.Fields) == len(decl) {
		return rv.Fields
	}
	return nil
}

// effective is signal slot idx's value as this delta's writers see it:
// the pending value, else the committed one.
func (r *runner) effective(idx int32) Value {
	if s := &r.sig[idx]; s.pending != nil {
		return s.pending
	}
	return r.glob[idx]
}

// recBuf is one reusable record container for a buffered signal: the
// mutable fields slice and its pre-boxed RecordVal, so a buffered store
// allocates nothing at all.
type recBuf struct {
	fields []Value
	val    Value
}

// bdelayed is a signal value a Mutation deferred to a later clock.
type bdelayed struct {
	at   int64
	idx  int32
	val  Value
	base Value
}

// bproc is one compiled process within a runner. Its Frame reads the
// process's locals and the runner's global slots.
type bproc struct {
	Frame
	r *runner
	// code is the program this run executes: prog.code, or
	// prog.costCode under a cost model, whose OpCharge instructions
	// add charges[pc] to lag.
	code    []Instr
	charges []int64
	procRegs
	err        error
	sliceSteps int64
	// localOwn marks local slots whose container this run built itself
	// (copy-on-write store); eligible aOwn stores then mutate in place.
	localOwn []bool
}

// procRegs is a process's scheduling state between delta cycles:
// everything a checkpoint keeps of it besides its locals.
type procRegs struct {
	// lag accumulates cost-model clocks not yet elapsed as simulated
	// time.
	lag   int64
	pc    int32
	state procState
	endAt int64
	// wait state, valid while state == stateWaiting:
	wMeta     *waitMeta
	wDeadline int64 // -1: none
	wForever  bool
	wHasCheck bool
	// inWait marks that the next exec resumes a suspended wait (assign
	// the timeout flag, advance past the instruction).
	inWait   bool
	timedOut bool
}

// runner is one pooled run context. All slices are sized once at
// construction; reset re-fills them from the engine's immutable
// templates, so repeated runs allocate only what evaluation itself
// allocates.
type runner struct {
	e   *Engine
	cfg Config

	// glob holds every global slot's value: each shared variable, and
	// each signal's committed value. The per-signal and per-variable
	// slices below (sig, recBufs, sharedOwn, changedAt) are indexed by
	// global slot too; entries of the other kind stay unused.
	glob    []Value
	sig     []bsignal
	procs   []*bproc
	dirty   []int32
	delayed []bdelayed

	// recBufs double-buffers eligible record signals (Engine.sigBufOK):
	// a pending value is always built in the buffer that is not the
	// current value, so the committed container is never overwritten.
	// useBufs gates them per run: an OnEvent hook receives committed
	// values and may legitimately retain them, which buffer recycling
	// would corrupt.
	recBufs [][2]recBuf
	useBufs bool

	// sharedOwn is localOwn for the shared slots (module variables).
	sharedOwn []bool

	// changedAt stamps the flush in which each signal last changed;
	// stamps are monotonic across runs so reset never needs to clear it.
	changedAt []int64
	stamp     int64

	// runnable holds the processes of the next delta cycle between
	// restore and run.
	runnable []int32
	// log, when non-nil, collects this run's checkpoints.
	log *checkpointLog

	runClock
}

// runClock is a run's position: the simulated clock, the delta cycles
// and instructions executed, the end of the servers' grace window (-1
// until every foreground process has finished) and the Config.Mutate
// calls made.
type runClock struct {
	now, deltas, steps, graceEnd, hookCalls int64
}

func newRunner(e *Engine) *runner {
	n := len(e.globals)
	r := &runner{
		e:         e,
		glob:      make([]Value, n),
		sig:       make([]bsignal, n),
		sharedOwn: make([]bool, n),
		changedAt: make([]int64, n),
		recBufs:   make([][2]recBuf, n),
	}
	for i, ok := range e.sigBufOK {
		if !ok {
			continue
		}
		rt := e.globals[i].Type.(spec.RecordType)
		for k := 0; k < 2; k++ {
			f := make([]Value, len(rt.Fields))
			r.recBufs[i][k] = recBuf{fields: f, val: RecordVal{Type: rt, Fields: f}}
		}
	}
	for _, prog := range e.progs {
		p := &bproc{
			r:        r,
			localOwn: make([]bool, len(prog.locals)),
		}
		p.init(prog, p.failf)
		p.Locals = make([]Value, len(prog.locals))
		p.Globals = r.glob
		r.procs = append(r.procs, p)
	}
	return r
}

// reset prepares the runner to run cfg from cp, restoring its state
// from the checkpoint (the initial state for Run). What survives a
// reset: the compiled programs, the slot arrays' capacity, the
// processes' frames, and the changedAt stamps (monotonic, so stale
// marks never match). What is re-derived: all values, scheduling state,
// and time.
func (r *runner) reset(cfg Config, cp *Checkpoint) {
	if cfg.MaxClocks <= 0 {
		cfg.MaxClocks = 10_000_000
	}
	if cfg.MaxStepsPerSlice <= 0 {
		cfg.MaxStepsPerSlice = 5_000_000
	}
	r.cfg = cfg
	r.useBufs = cfg.OnEvent == nil
	for _, p := range r.procs {
		p.code = p.prog.code
		if cfg.Cost != nil {
			p.code = p.prog.costCode
			p.charges = p.charges[:0]
			for i := range p.code {
				var c int64
				if p.code[i].op == OpCharge {
					c = p.code[i].clocks(cfg.Cost)
				}
				p.charges = append(p.charges, c)
			}
		}
	}
	r.restore(cp)
}

// run is the delta-cycle loop.
func (r *runner) run() (*Result, error) {
	runnable := r.runnable
	defer func() { r.runnable = runnable[:0] }()
	for {
		// Delta cycles.
		for len(runnable) > 0 {
			if r.log != nil && r.log.due(r.deltas) {
				r.log.add(r.capture(runnable))
			}
			r.deltas++
			if r.deltas > maxDeltas {
				return nil, hangf("sim: exceeded %d delta cycles at clock %d (livelock?)", maxDeltas, r.now)
			}
			insertionSortInt32(runnable)
			r.reorder(runnable)
			for _, pi := range runnable {
				if err := r.stepProc(r.procs[pi]); err != nil {
					return nil, err
				}
			}
			runnable = runnable[:0]
			if r.flush() {
				runnable = r.wake(runnable)
			}
		}

		// When every foreground process has finished, keep simulating
		// for a short grace window so variable processes can complete
		// in-flight commits (a server latches the last bus word one
		// clock after the accessor's handshake completes).
		if r.foregroundDone() {
			if r.graceEnd < 0 {
				r.graceEnd = r.now + graceClocks
			}
		}

		// Advance time to the earliest deadline (process wait deadlines
		// and delayed signal commits alike).
		next := int64(-1)
		for _, p := range r.procs {
			if p.state == stateWaiting && !p.wForever && p.wDeadline >= 0 {
				if next < 0 || p.wDeadline < next {
					next = p.wDeadline
				}
			}
		}
		for i := range r.delayed {
			if next < 0 || r.delayed[i].at < next {
				next = r.delayed[i].at
			}
		}
		if r.graceEnd >= 0 && (next < 0 || next > r.graceEnd) {
			return r.result(), nil
		}
		if next < 0 {
			return nil, r.deadlock()
		}
		if next > r.cfg.MaxClocks {
			return nil, hangf("sim: exceeded MaxClocks=%d at clock %d", r.cfg.MaxClocks, r.now)
		}
		r.now = next
		// Delayed signal commits due now bypass Config.Mutate (they are
		// the hook's own doing) and wake sensitive processes like any
		// other event.
		if r.applyDelayed() {
			if r.flush() {
				runnable = r.wake(runnable)
			}
		}
		for i, p := range r.procs {
			if p.state == stateWaiting && !p.wForever && p.wDeadline == r.now {
				p.timedOut = p.wHasCheck && !p.condBool(p.wMeta.funtil, p.wMeta.cuntil)
				p.state = stateReady
				runnable = append(runnable, int32(i))
			}
		}
	}
}

// reorder applies the Config.Schedule hook to one delta cycle's
// runnable set (already in default id order). Listed processes run in
// the hook's order; unlisted ones keep their relative default order and
// run after every listed one.
func (r *runner) reorder(runnable []int32) {
	if r.cfg.Schedule == nil || len(runnable) < 2 {
		return
	}
	names := make([]string, len(runnable))
	for i, pi := range runnable {
		names[i] = r.procs[pi].prog.beh.Name
	}
	rank := make(map[string]int, len(runnable))
	for _, n := range r.cfg.Schedule(r.now, names) {
		if _, ok := rank[n]; !ok {
			rank[n] = len(rank)
		}
	}
	sort.SliceStable(runnable, func(i, j int) bool {
		ri, iok := rank[r.procs[runnable[i]].prog.beh.Name]
		rj, jok := rank[r.procs[runnable[j]].prog.beh.Name]
		if iok != jok {
			return iok
		}
		return iok && ri < rj
	})
}

func (r *runner) stepProc(p *bproc) error {
	p.sliceSteps = 0
	p.exec()
	if p.state == stateError {
		return fmt.Errorf("sim: process %s failed at clock %d: %w", p.prog.beh.Name, r.now, p.err)
	}
	return nil
}

// flush applies pending signal updates, stamping changed slots for
// wake; reports whether any event fired.
func (r *runner) flush() bool {
	r.stamp++
	any := false
	for _, idx := range r.dirty {
		s := &r.sig[idx]
		if s.pending == nil {
			continue
		}
		if r.cfg.Mutate != nil && !s.skipMutate && !s.muteHook {
			r.hookCalls++
			m := r.cfg.Mutate(r.now, r.e.globals[idx], r.glob[idx], s.pending)
			if m.Now == nil && m.Later == nil {
				if m.Done {
					r.cfg.Mutate = nil
				}
				if m.SkipSig {
					s.muteHook = true
				}
			}
			if m.Now != nil {
				s.pending = m.Now
			}
			if m.Later != nil && m.Delay > 0 {
				r.delayed = append(r.delayed, bdelayed{
					at: r.now + m.Delay, idx: idx, val: m.Later, base: s.pending.Copy(),
				})
			}
		}
		s.skipMutate = false
		// The pending value is about to be committed (visible via hooks
		// and reads) or dropped; either way it is no longer private.
		s.pendingOwned = false
		if !s.pending.Equal(r.glob[idx]) {
			r.glob[idx] = s.pending
			s.events++
			s.pending = nil
			r.changedAt[idx] = r.stamp
			any = true
			if r.cfg.OnEvent != nil {
				r.cfg.OnEvent(r.now, r.e.globals[idx], r.glob[idx])
			}
			continue
		}
		s.pending = nil
	}
	r.dirty = r.dirty[:0]
	return any
}

// wake appends the processes woken by the last flush's events: those
// sensitive to a changed signal whose until condition (if any) now
// holds.
func (r *runner) wake(runnable []int32) []int32 {
	for i, p := range r.procs {
		if p.state != stateWaiting || p.wForever {
			continue
		}
		hit := false
		for _, si := range p.wMeta.sensIdx {
			if r.changedAt[si] == r.stamp {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if p.wHasCheck && !p.condBool(p.wMeta.funtil, p.wMeta.cuntil) {
			continue
		}
		p.timedOut = false
		p.state = stateReady
		runnable = append(runnable, int32(i))
	}
	return runnable
}

// applyDelayed schedules every delayed signal commit due at the current
// clock, reporting whether any was applied.
func (r *runner) applyDelayed() bool {
	applied := false
	rest := r.delayed[:0]
	for _, d := range r.delayed {
		if d.at > r.now {
			rest = append(rest, d)
			continue
		}
		s := &r.sig[d.idx]
		if s.pending == nil {
			r.dirty = append(r.dirty, d.idx)
		}
		s.pending = mergeDelayed(r.effective(d.idx), d.base, d.val)
		s.skipMutate = true
		s.pendingOwned = false
		applied = true
	}
	r.delayed = rest
	return applied
}

// schedule registers a pending signal update for the current delta.
func (r *runner) schedule(idx int32, val Value) {
	s := &r.sig[idx]
	if s.pending == nil {
		r.dirty = append(r.dirty, idx)
	}
	s.pending = val
}

func (r *runner) foregroundDone() bool {
	for _, p := range r.procs {
		if !p.prog.beh.Server && p.state != stateFinished && p.state != stateError {
			return false
		}
	}
	return true
}

func (r *runner) deadlock() error {
	var waiting []string
	for _, p := range r.procs {
		if p.state != stateWaiting {
			continue
		}
		name := p.prog.beh.Name
		if p.prog.beh.Server {
			name += " (server)"
		}
		m := p.wMeta
		waiting = append(waiting, fmt.Sprintf("%s: %s",
			name, formatWait(m.sensNames, p.wHasCheck, m.condStr, p.wDeadline, p.wForever)))
	}
	bus := busStateOf(r.e.sys, func(v *spec.Variable) (Value, bool) {
		idx, ok := r.e.sigIdx[v]
		if !ok {
			return nil, false
		}
		return r.glob[idx], true
	})
	return &DeadlockError{Now: r.now, Waiting: waiting, Bus: bus}
}

func (r *runner) result() *Result {
	res := &Result{
		Clocks: r.now,
		Deltas: r.deltas,
		Steps:  r.steps,
		Finals: make(map[string]Value, len(r.e.finalKeys)),
	}
	// Values are immutable at runtime, so the Result can share them with
	// the (about to be re-pooled) runner without copying.
	for i, key := range r.e.finalKeys {
		res.Finals[key] = r.glob[r.e.finalSlots[i]]
	}
	if r.cfg.FinalsOnly {
		return res
	}
	res.ProcessEnd = make(map[string]int64, len(r.procs))
	res.SignalEvents = make(map[string]int64, len(r.e.sigSlots))
	for _, p := range r.procs {
		if !p.prog.beh.Server && p.state == stateFinished {
			res.ProcessEnd[p.prog.beh.Name] = p.endAt
		}
	}
	for _, i := range r.e.sigSlots {
		res.SignalEvents[r.e.globals[i].Name] = r.sig[i].events
	}
	return res
}

// ---- process execution ----

func (p *bproc) failf(format string, args ...any) {
	fail("process "+p.prog.beh.Name+": "+format, args...)
}

// exec runs the process until it suspends, finishes or fails, starting
// from the program counter it last yielded at.
func (p *bproc) exec() {
	defer func() {
		if rec := recover(); rec != nil {
			if se, ok := rec.(simError); ok {
				p.state = stateError
				p.err = se.err
			} else {
				p.state = stateError
				p.err = fmt.Errorf("internal fault: %v", rec)
			}
		}
	}()
	code := p.code
	if p.inWait {
		p.inWait = false
		m := code[p.pc].wait
		p.wMeta = nil
		p.wDeadline = -1
		p.wForever = false
		p.wHasCheck = false
		if m.timedOut != nil {
			p.setStorage(m.timedOutRef, m.timedOut, BoolVal{V: p.timedOut})
		}
		p.pc++
	}
	for {
		p.sliceSteps++
		p.r.steps++
		if p.sliceSteps > p.r.cfg.MaxStepsPerSlice {
			panic(simError{hangf("process %s executed %d instructions without yielding (runaway zero-delay loop?)",
				p.prog.beh.Name, p.sliceSteps)})
		}
		in := &code[p.pc]
		switch in.op {
		case OpAssign:
			p.execAssign(in)
			p.pc++
		case OpBranch:
			if p.condBool(in.fcond, in.ccond) {
				p.pc++
			} else {
				p.pc = in.target
			}
		case OpJump:
			p.pc = in.target
		case OpClear:
			// The slot now holds the shared template, which it does not
			// own: an in-place store must copy it first.
			p.Locals[in.slot] = in.clearVal
			p.localOwn[in.slot] = false
			p.pc++
		case OpWait:
			if p.execWait(in.wait) {
				p.pc++
				continue
			}
			p.state = stateWaiting
			p.inWait = true
			return
		case OpCharge:
			p.lag += p.charges[p.pc]
			p.pc++
			if in.realize && p.lag > 0 {
				// The computation elapses before the next instruction
				// runs: a timed suspension as long as the lag.
				p.wMeta = &lagWait
				p.wDeadline = p.r.now + p.lag
				p.wForever = false
				p.wHasCheck = false
				p.lag = 0
				p.state = stateWaiting
				return
			}
		default: // OpEnd
			p.state = stateFinished
			p.endAt = p.r.now
			return
		}
	}
}

// execAssign evaluates the right-hand side and stores it. Signal
// targets are delta-scheduled (partial stores build on the pending
// value, so a later field update in the same delta cannot revert an
// earlier one), variable targets update in place, and a store into a
// never-written local follows Frame.writable.
func (p *bproc) execAssign(in *Instr) {
	val := p.evalC(in.crhs)
	ref := in.lref
	if ref.sp == SignalSlot {
		s := &p.r.sig[ref.idx]
		if len(in.path) == 0 {
			p.r.schedule(ref.idx, Coerce(val, in.base.Type))
			// A plain store's value may be shared (interned box, another
			// variable's container) — never mutable in place.
			s.pendingOwned = false
			return
		}
		if a := &in.path[0]; len(in.path) == 1 && a.kind == 1 {
			if s.pending != nil && s.pendingOwned {
				if rv, ok := s.pending.(RecordVal); ok {
					i := int(a.fieldIdx)
					if i < 0 || i >= len(rv.Type.Fields) || rv.Type.Fields[i].Name != a.field {
						i = rv.FieldIndex(a.field)
					}
					if i >= 0 {
						rv.Fields[i] = Coerce(val, rv.Type.Fields[i].Type)
						return
					}
					// Unknown field: fall through so applyPath raises its
					// store error.
				}
			} else if s.pending == nil && p.r.useBufs {
				// First field store of this delta on a buffer-eligible
				// signal: build the pending value in the recycled buffer
				// that is not the current container, copying the committed
				// fields and overwriting the target — an allocation-free
				// equivalent of applyPath's rebuild. recFieldsOf proves
				// that the committed value has the declared layout, which
				// also validates the compile-time field hint (both derive
				// from the same declared type).
				if flds := recFieldsOf(p.r.e.sigRecFields[ref.idx], p.Globals[ref.idx]); flds != nil {
					if bufs := &p.r.recBufs[ref.idx]; bufs[0].fields != nil && len(flds) == len(bufs[0].fields) {
						if i := int(a.fieldIdx); i >= 0 && i < len(flds) {
							k := 0
							if &flds[0] == &bufs[0].fields[0] {
								k = 1
							}
							copy(bufs[k].fields, flds)
							bufs[k].fields[i] = Coerce(val, p.r.e.sigRecFields[ref.idx][i].Type)
							p.r.schedule(ref.idx, bufs[k].val)
							s.pendingOwned = true
							return
						}
					}
				}
			}
		}
		p.r.schedule(ref.idx, p.applyPath(p.r.effective(ref.idx), in.path, val))
		s.pendingOwned = true
		return
	}
	if len(in.path) == 0 {
		if ref.sp == LocalSlot {
			p.writable(in, p.Locals[ref.idx])
		}
		p.setRaw(ref, Coerce(val, in.base.Type))
		// A whole store may install a container shared with another
		// variable; the slot no longer owns it.
		p.setOwn(ref, false)
		return
	}
	cur := p.load(ref)
	p.writable(in, cur)
	if in.aOwn && p.ownSlot(ref) {
		if av, ok := cur.(ArrayVal); ok {
			// The slot owns its container and the escape analysis proved
			// no read ever exposes it: mutate the element in place —
			// applyPath's rebuild without the per-store container copy.
			a := &in.path[0]
			idx := int(asInt(p.evalC(a.index))) - av.Lo
			if idx < 0 || idx >= len(av.Elems) {
				p.fail("store index %d out of range (len %d)", idx+av.Lo, len(av.Elems))
			}
			if len(in.path) == 1 {
				av.Elems[idx] = coerceLeafLike(val, av.Elems[idx])
			} else {
				av.Elems[idx] = p.applyPath(av.Elems[idx], in.path[1:], val)
			}
			return
		}
	}
	p.setRaw(ref, p.applyPath(cur, in.path, val))
	if in.aOwn {
		p.setOwn(ref, true)
	}
}

// ownSlot reports whether a non-signal slot's container was built by
// this run (so eligible stores may mutate it in place).
func (p *bproc) ownSlot(ref slotRef) bool {
	if ref.sp == SharedSlot {
		return p.r.sharedOwn[ref.idx]
	}
	return p.localOwn[ref.idx]
}

func (p *bproc) setOwn(ref slotRef, own bool) {
	if ref.sp == SharedSlot {
		p.r.sharedOwn[ref.idx] = own
	} else {
		p.localOwn[ref.idx] = own
	}
}

func (p *bproc) setRaw(ref slotRef, val Value) {
	if ref.sp == SharedSlot {
		p.Globals[ref.idx] = val
	} else {
		p.Locals[ref.idx] = val
	}
}

// setStorage writes a setLocal-style target (timeout flag), coercing to
// the variable's declared type.
func (p *bproc) setStorage(ref slotRef, v *spec.Variable, val Value) {
	p.setRaw(ref, Coerce(val, v.Type))
}

// execWait executes a wait. It reports true when the process continues
// without suspending (an until condition that already holds), false
// when it suspends with the wait state recorded on the process. A pure
// timed wait absorbs the process's cost-model lag into its deadline;
// every other wait found the lag already elapsed (the OpCharge before
// it).
func (p *bproc) execWait(m *waitMeta) bool {
	s := m.w
	if m.badOn != nil {
		p.failf("wait on non-signal %s", m.badOn.Name)
	}
	if s.Until != nil {
		if p.condBool(m.funtil, m.cuntil) {
			if m.timedOut != nil {
				p.setStorage(m.timedOutRef, m.timedOut, BoolVal{V: false})
			}
			return true
		}
		if m.noSense {
			p.failf("wait until %s has no signal sensitivity and no timeout", s.Until)
		}
	}
	p.wDeadline = -1
	if s.HasFor {
		if s.For < 0 {
			p.failf("negative wait duration %d", s.For)
		}
		p.wDeadline = p.r.now + s.For + p.lag
		p.lag = 0
	}
	p.wMeta = m
	p.wForever = m.forever
	p.wHasCheck = s.Until != nil
	return false
}

// lagWait is the wait state of a process whose cost-model lag is
// elapsing: no sensitivity, no condition, only the deadline.
var lagWait waitMeta

// insertionSortInt32 sorts a small id slice ascending; runnable sets
// are at most the process count, where insertion sort beats sort.Slice
// and allocates nothing.
func insertionSortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
