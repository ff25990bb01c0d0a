package sim

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/spec"
)

// This file compiles behaviors into flat programs for the Engine
// (batch.go); the model checker (internal/verify) steps the same plain
// programs through a Frame (frame.go), so the statement language has
// one compiler. Compilation flattens control flow so that a process's
// entire continuation is a single program counter, which lets a plain
// in-loop scheduler suspend and resume processes with an integer store,
// and resolves every variable to a dense slot index so a run needs no
// per-run maps at all.
//
// The lowering pins down the statement semantics where they are subtle:
// for-loop counters are hidden, so body writes to the loop variable do
// not change the iteration count; `exit` leaves the innermost loop or
// procedure call (exiting a call returns from it, and the call's
// copy-out still runs), `return` leaves the innermost call, and either
// ends the behavior at top level; scratch variables come into scope on
// their first setLocal-style write. Recursive procedures and
// non-lvalue assignment targets are compile errors: calls are inlined,
// and a store the compiler cannot resolve has no runtime meaning.
//
// Each behavior compiles to two programs from one instruction stream.
// The cost program holds an OpCharge instruction wherever the cost
// model charges a statement (each source assignment, each evaluated
// branch or while condition, each loop iteration, each call) and
// wherever accumulated computation must elapse as simulated time
// (before a source signal assignment, before a wait that is not a pure
// timed wait, and at process end). The plain program is the same
// stream with every OpCharge removed, so a run without a cost model
// executes no accounting at all.

// Op is the instruction set of a compiled behavior.
type Op uint8

// The opcodes. A plain program (Program.Code) never holds OpCharge.
const (
	OpAssign Op = iota // evaluate rhs, store into the lvalue
	OpBranch           // fall through when cond holds, else jump to target
	OpJump             // jump to target
	OpClear            // local slot := zero value (procedure activation entry)
	OpWait             // suspend per waitMeta
	OpCharge           // add the cost-model charge to the lag; maybe let it elapse
	OpEnd              // process finished
)

// Space says which storage array a resolved variable lives in: the
// process's local slots, or the global slots (Engine.Globals), where
// shared variables and signals sit side by side.
type Space uint8

// The storage spaces.
const (
	LocalSlot Space = iota
	SharedSlot
	SignalSlot
)

// slotRef is a resolved variable: storage space plus dense index (a
// local slot, or a global slot for SharedSlot and SignalSlot).
type slotRef struct {
	sp  Space
	idx int32
}

// Instr is one compiled instruction; frame.go exposes its read side.
type Instr struct {
	op     Op
	target int32 // OpBranch (taken when its condition is false), OpJump
	// OpBranch: the compiled condition, and its fast boolean form when
	// it has one (nil, or no answer, evaluates ccond).
	ccond *cexpr
	fcond *fcond

	// OpAssign: the lvalue pre-flattened to base slot + accessor path,
	// so the runtime store is a slot write (plain) or one applyPath
	// rebuild (indexed/field/slice), with no per-statement closures.
	crhs *cexpr
	base *spec.Variable
	lref slotRef
	// aOwn marks an element store into an array variable whose container
	// the escape analysis proved unaliased; once the run owns the
	// container (first copy-on-write store), such stores mutate it in
	// place. Set in a post-pass over all compiled programs, because a
	// shared array could escape in another behavior.
	aOwn bool
	path []accessor
	// create marks compiler-synthesized assigns (loop counters, wait
	// timeout flags, parameter copy-in): they may initialize a scratch
	// local, where an ordinary assignment to a never-written scratch
	// variable fails "not writable".
	create bool
	// OpCharge: which CostModel charge to add (costBranch charges for
	// cond, costAssign for stmt), and whether the accumulated lag must
	// elapse before the next instruction runs.
	charge  costKind
	realize bool
	cond    spec.Expr
	stmt    *spec.Assign

	wait *waitMeta // OpWait

	// OpClear: slot re-initialized to clearVal (an immutable zero-value
	// template shared by every activation and every pooled run).
	slot     int32
	clearVal Value
}

// waitMeta is the precomputed static part of a wait statement: the
// sensitivity list (the `on` signals, then the signals read by the
// `until` condition), the rendered condition, and the failure cases
// detected when the wait executes.
type waitMeta struct {
	w *spec.Wait
	// sensNames are the sensitivity names for deadlock descriptions —
	// including condition signals absent from the system, which are
	// listed even though they can never fire.
	sensNames []string
	// sensIdx are the signal slots that can actually wake the process.
	sensIdx []int32
	condStr string
	// cuntil is the compiled until condition; funtil is its fast
	// boolean form, when it has one.
	cuntil *cexpr
	funtil *fcond
	// badOn, when non-nil, is the first non-signal variable in the `on`
	// list; executing the wait fails.
	badOn *spec.Variable
	// noSense marks a `wait until` with no sensitivity and no timeout:
	// legal if the condition holds immediately, a runtime error
	// otherwise (matching execWait).
	noSense bool
	forever bool
	// timedOut, when non-nil, receives the timeout flag on resume.
	timedOut    *spec.Variable
	timedOutRef slotRef
}

// costKind names the CostModel charge an OpCharge adds.
type costKind uint8

const (
	costNone   costKind = iota // realization point only
	costAssign                 // AssignClocks + rhs + lvalue address cost
	costBranch                 // BranchClocks + condition cost
	costLoop                   // LoopClocks, once per iteration
	costCall                   // CallClocks
)

// clocks is an OpCharge's charge under model m; a negative total
// charges nothing.
func (in *Instr) clocks(m *estimate.CostModel) int64 {
	var c int64
	switch in.charge {
	case costAssign:
		c = m.AssignClocks + m.ExprCost(in.stmt.RHS) + m.LValueCost(in.stmt.LHS)
	case costBranch:
		c = m.BranchClocks + m.ExprCost(in.cond)
	case costLoop:
		c = m.LoopClocks
	case costCall:
		c = m.CallClocks
	}
	return max(c, 0)
}

// Program is one behavior compiled for the Engine. It is immutable
// after compilation and shared by every runner of an Engine and by any
// other executor stepping it through a Frame (frame.go).
type Program struct {
	beh *spec.Behavior
	// code is the plain program; costCode the same stream with the
	// cost model's OpCharge instructions (see the file comment).
	code     []Instr
	costCode []Instr
	// locals are this process's dense variable slots: declared behavior
	// variables (localInit holds their initial values), inlined
	// procedure parameters and locals (initialized per activation by the
	// compiled copy-in/clear prologue), and scratch variables — nil in
	// localInit and at reset, created by their first setLocal-style
	// write; reading a still-nil slot fails "not in scope".
	locals    []*spec.Variable
	localInit []Value
	// res resolves every variable the program can touch to its slot.
	res   map[*spec.Variable]slotRef
	temps int
	// maxStack is the deepest operand stack any compiled expression of
	// this program needs; every Frame pre-sizes its stack with it.
	maxStack int
}

// scope is one enclosing loop or inlined call during compilation. Exit
// jumps to the end of the innermost scope of either kind (a loop ends
// at its bottom; exiting a call is returning from it). Return jumps to
// the end of the innermost call scope, skipping loops.
type scope struct {
	isCall  bool
	patches []int
}

// bcompiler compiles one behavior against an Engine's global layout.
type bcompiler struct {
	e       *Engine
	prog    *Program
	scopes  []scope
	endRefs []int // jumps to the final OpEnd
	active  map[*spec.Procedure]bool
	err     error
}

func (e *Engine) compile(beh *spec.Behavior) (*Program, error) {
	prog := &Program{
		beh: beh,
		res: make(map[*spec.Variable]slotRef),
	}
	c := &bcompiler{e: e, prog: prog, active: make(map[*spec.Procedure]bool)}
	for _, v := range beh.Variables {
		c.addLocal(v, InitialValue(v))
	}
	c.stmts(beh.Body)
	end := c.here()
	c.emit(Instr{op: OpCharge, charge: costNone, realize: true})
	c.emit(Instr{op: OpEnd})
	for _, at := range c.endRefs {
		prog.costCode[at].target = end
	}
	if c.err != nil {
		return nil, fmt.Errorf("behavior %s: %w", beh.Name, c.err)
	}
	return prog, nil
}

func (c *bcompiler) emit(i Instr) int {
	c.prog.costCode = append(c.prog.costCode, i)
	return len(c.prog.costCode) - 1
}

func (c *bcompiler) here() int32 { return int32(len(c.prog.costCode)) }

// stripCharges derives the plain program from the cost program: every
// OpCharge removed, jump targets moved to the next kept instruction.
func stripCharges(code []Instr) []Instr {
	newIdx := make([]int32, len(code)+1)
	var n int32
	for i := range code {
		newIdx[i] = n
		if code[i].op != OpCharge {
			n++
		}
	}
	newIdx[len(code)] = n
	plain := make([]Instr, 0, n)
	for _, in := range code {
		if in.op == OpCharge {
			continue
		}
		if in.op == OpBranch || in.op == OpJump {
			in.target = newIdx[in.target]
		}
		plain = append(plain, in)
	}
	return plain
}

func (c *bcompiler) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// addLocal registers a local slot; init is nil for activation-scoped
// and scratch slots.
func (c *bcompiler) addLocal(v *spec.Variable, init Value) slotRef {
	if ref, ok := c.prog.res[v]; ok {
		return ref
	}
	ref := slotRef{sp: LocalSlot, idx: int32(len(c.prog.locals))}
	c.prog.res[v] = ref
	c.prog.locals = append(c.prog.locals, v)
	c.prog.localInit = append(c.prog.localInit, init)
	return ref
}

// resolve maps a variable to its slot. Lookup order: process locals
// (behavior variables, inlined procedure slots), then module variables
// and non-signal globals, then signals. A variable known nowhere
// becomes a scratch local, nil until first written — reading it fails
// "not in scope" at runtime.
func (c *bcompiler) resolve(v *spec.Variable) slotRef {
	if ref, ok := c.prog.res[v]; ok {
		return ref
	}
	if idx, ok := c.e.sharedIdx[v]; ok {
		ref := slotRef{sp: SharedSlot, idx: int32(idx)}
		c.prog.res[v] = ref
		return ref
	}
	if idx, ok := c.e.sigIdx[v]; ok {
		ref := slotRef{sp: SignalSlot, idx: int32(idx)}
		c.prog.res[v] = ref
		return ref
	}
	return c.addLocal(v, nil)
}

// resolveStorage resolves a setLocal-style target (loop variable,
// timeout flag): locals, then shared storage, never signals; a
// variable found in neither becomes a scratch local.
func (c *bcompiler) resolveStorage(v *spec.Variable) slotRef {
	if ref, ok := c.prog.res[v]; ok {
		return ref
	}
	if idx, ok := c.e.sharedIdx[v]; ok {
		ref := slotRef{sp: SharedSlot, idx: int32(idx)}
		c.prog.res[v] = ref
		return ref
	}
	return c.addLocal(v, nil)
}

// scanExpr resolves every variable an expression references, so the
// expression compiles to slot loads.
func (c *bcompiler) scanExpr(e spec.Expr) {
	spec.WalkExpr(e, func(x spec.Expr) bool {
		if r, ok := x.(*spec.VarRef); ok {
			c.resolve(r.Var)
		}
		return true
	})
}

// markEscapes records variables whose whole container an expression
// can observe. A record-typed signal escapes when a VarRef appears
// anywhere but the X of a FieldRef: a field read extracts one immutable
// leaf and discards the container, so signals only ever read field-wise
// can be driven through reusable buffers (see execAssign); any other
// appearance could copy the container into a variable or a Result,
// which must never alias a buffer the kernel will overwrite. Likewise
// an array-typed variable escapes when a VarRef appears anywhere but
// the Arr of an Index: an element read extracts one immutable value, so
// arrays only ever read element-wise have provably unaliased containers
// and element stores may mutate them in place once the run owns the
// container. Unknown node kinds poison the whole engine (bufUnsafe)
// rather than guess.
func (c *bcompiler) markEscapes(e spec.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *spec.IntLit, *spec.VecLit, *spec.BoolLit:
	case *spec.VarRef:
		if e.Var.Kind == spec.KindSignal {
			if _, ok := e.Var.Type.(spec.RecordType); ok {
				c.e.recEscapes[e.Var] = true
			}
		}
		if _, ok := e.Var.Type.(spec.ArrayType); ok {
			c.e.arrEscapes[e.Var] = true
		}
	case *spec.FieldRef:
		if _, ok := e.X.(*spec.VarRef); ok {
			return
		}
		c.markEscapes(e.X)
	case *spec.Index:
		if _, ok := e.Arr.(*spec.VarRef); !ok {
			c.markEscapes(e.Arr)
		}
		c.markEscapes(e.Index)
	case *spec.SliceExpr:
		c.markEscapes(e.X)
		c.markEscapes(e.Hi)
		c.markEscapes(e.Lo)
	case *spec.Binary:
		c.markEscapes(e.X)
		c.markEscapes(e.Y)
	case *spec.Unary:
		c.markEscapes(e.X)
	case *spec.Conv:
		c.markEscapes(e.X)
	default:
		c.e.bufUnsafe = true
	}
}

func (c *bcompiler) newTemp(name string) *spec.Variable {
	v := spec.NewVar(fmt.Sprintf("__%s_%d", name, c.prog.temps), spec.Integer)
	c.prog.temps++
	c.addLocal(v, nil)
	return v
}

func (c *bcompiler) stmts(list []spec.Stmt) {
	for _, s := range list {
		if c.err != nil {
			return
		}
		c.stmt(s)
	}
}

func (c *bcompiler) stmt(s spec.Stmt) {
	switch s := s.(type) {
	case *spec.Assign:
		// Another process can observe a signal store, so the lag must
		// elapse before it: a completion flag must not take effect
		// before the computation it reports on.
		_, toSignal := c.e.sigIdx[spec.BaseVar(s.LHS)]
		c.emit(Instr{op: OpCharge, charge: costAssign, stmt: s, realize: toSignal})
		c.compileAssign(s.LHS, s.RHS, false)
	case *spec.If:
		c.compileIf(s)
	case *spec.For:
		c.compileFor(s)
	case *spec.While:
		c.compileWhile(s)
	case *spec.Loop:
		c.compileLoop(s)
	case *spec.Exit:
		c.jumpOut(false)
	case *spec.Return:
		c.jumpOut(true)
	case *spec.Wait:
		c.compileWait(s)
	case *spec.Call:
		c.compileCall(s)
	case *spec.Null:
		// nothing
	default:
		c.fail("cannot compile %T", s)
	}
}

// jumpOut emits the forward jump for Exit (callsOnly=false: innermost
// loop or call scope) or Return (callsOnly=true: innermost call scope);
// with no matching scope both end the behavior.
func (c *bcompiler) jumpOut(callsOnly bool) {
	j := c.emit(Instr{op: OpJump})
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if callsOnly && !c.scopes[i].isCall {
			continue
		}
		c.scopes[i].patches = append(c.scopes[i].patches, j)
		return
	}
	c.endRefs = append(c.endRefs, j)
}

// popScope patches the scope's collected jumps to land here.
func (c *bcompiler) popScope() {
	top := len(c.scopes) - 1
	for _, j := range c.scopes[top].patches {
		c.prog.costCode[j].target = c.here()
	}
	c.scopes = c.scopes[:top]
}

func (c *bcompiler) compileAssign(lhs, rhs spec.Expr, create bool) {
	c.scanExpr(rhs)
	c.scanExpr(lhs)
	base, path := c.compileLValue(lhs)
	if base == nil {
		c.fail("assignment to non-lvalue %s", lhs)
		return
	}
	c.markEscapes(rhs)
	var ref slotRef
	if create {
		ref = c.resolveStorage(base)
	} else {
		ref = c.resolve(base)
	}
	fillPathHints(path, base.Type)
	c.emit(Instr{op: OpAssign, crhs: c.compileExpr(rhs), base: base, lref: ref, path: path, create: create})
}

func (c *bcompiler) compileIf(s *spec.If) {
	var toEnd []int
	arm := func(cond spec.Expr, body []spec.Stmt, last bool) {
		c.scanExpr(cond)
		c.markEscapes(cond)
		c.emit(Instr{op: OpCharge, charge: costBranch, cond: cond})
		br := c.emit(Instr{op: OpBranch, ccond: c.compileExpr(cond), fcond: c.compileCond(cond)})
		c.stmts(body)
		if !last {
			toEnd = append(toEnd, c.emit(Instr{op: OpJump}))
		}
		c.prog.costCode[br].target = c.here()
	}
	lastArm := len(s.Elifs)
	arm(s.Cond, s.Then, lastArm == 0 && len(s.Else) == 0)
	for i, e := range s.Elifs {
		arm(e.Cond, e.Body, i == lastArm-1 && len(s.Else) == 0)
	}
	c.stmts(s.Else)
	for _, j := range toEnd {
		c.prog.costCode[j].target = c.here()
	}
}

// compileFor lowers a for loop: From and To are evaluated once into
// hidden integer counters before the first iteration, and the loop
// variable is (re)assigned from the hidden counter at the top of every
// iteration — a body that writes the loop variable does not change the
// iteration count. The hidden-counter bookkeeping is free under the
// cost model; each iteration is charged LoopClocks.
func (c *bcompiler) compileFor(s *spec.For) {
	i := c.newTemp("i")
	to := c.newTemp("to")
	c.compileAssign(spec.Ref(i), s.From, true)
	c.compileAssign(spec.Ref(to), s.To, true)
	head := c.here()
	forCond := spec.Le(spec.Ref(i), spec.Ref(to))
	br := c.emit(Instr{op: OpBranch, ccond: c.compileExpr(forCond), fcond: c.compileCond(forCond)})
	c.emit(Instr{op: OpCharge, charge: costLoop})
	c.compileAssign(spec.Ref(s.Var), spec.Ref(i), true)
	c.scopes = append(c.scopes, scope{})
	c.stmts(s.Body)
	c.compileAssign(spec.Ref(i), spec.Add(spec.Ref(i), spec.Int(1)), true)
	c.emit(Instr{op: OpJump, target: head})
	c.prog.costCode[br].target = c.here()
	c.popScope()
}

func (c *bcompiler) compileWhile(s *spec.While) {
	head := c.here()
	c.scanExpr(s.Cond)
	c.markEscapes(s.Cond)
	c.emit(Instr{op: OpCharge, charge: costBranch, cond: s.Cond})
	br := c.emit(Instr{op: OpBranch, ccond: c.compileExpr(s.Cond), fcond: c.compileCond(s.Cond)})
	c.scopes = append(c.scopes, scope{})
	c.stmts(s.Body)
	c.emit(Instr{op: OpJump, target: head})
	c.prog.costCode[br].target = c.here()
	c.popScope()
}

func (c *bcompiler) compileLoop(s *spec.Loop) {
	head := c.here()
	c.emit(Instr{op: OpCharge, charge: costLoop})
	c.scopes = append(c.scopes, scope{})
	c.stmts(s.Body)
	c.emit(Instr{op: OpJump, target: head})
	c.popScope()
}

func (c *bcompiler) compileWait(s *spec.Wait) {
	m := &waitMeta{w: s}
	for _, v := range s.On {
		if idx, ok := c.e.sigIdx[v]; ok {
			m.sensNames = append(m.sensNames, v.Name)
			m.sensIdx = append(m.sensIdx, int32(idx))
		} else if m.badOn == nil {
			m.badOn = v
		}
	}
	if s.Until != nil {
		c.scanExpr(s.Until)
		c.markEscapes(s.Until)
		m.cuntil = c.compileExpr(s.Until)
		m.funtil = c.compileCond(s.Until)
		m.condStr = s.Until.String()
		for _, v := range spec.SignalsRead(s.Until) {
			// Every signal the condition reads is in the sensitivity
			// (and so in deadlock descriptions), but only system
			// signals generate events and can wake the process.
			m.sensNames = append(m.sensNames, v.Name)
			if idx, ok := c.e.sigIdx[v]; ok {
				m.sensIdx = append(m.sensIdx, int32(idx))
			}
		}
		if len(m.sensNames) == 0 && !s.HasFor {
			m.noSense = true
		}
	}
	if len(m.sensNames) == 0 && s.Until == nil && !s.HasFor {
		m.forever = true
	}
	if s.TimedOut != nil {
		m.timedOut = s.TimedOut
		m.timedOutRef = c.resolveStorage(s.TimedOut)
	}
	// Conditions must see the signal updates this process scheduled
	// while it computed, so the lag elapses before any wait except a
	// pure timed one, which absorbs the lag into its deadline
	// (bproc.execWait).
	if s.Until != nil || len(s.On) > 0 || !s.HasFor {
		c.emit(Instr{op: OpCharge, charge: costNone, realize: true})
	}
	c.emit(Instr{op: OpWait, wait: m})
}

// batchCallDepth bounds static call nesting: calls are inlined, so
// recursion (and pathological nesting) is rejected at compile time.
const batchCallDepth = 64

// compileCall inlines the procedure: copy-in assignments for in/inout
// parameters, zero-cleared out parameters and locals, the body (with
// Return lowered to a jump past it), then copy-out assignments. Distinct
// call sites share the procedure's slots, which is safe because every
// activation re-initializes each one on entry. Copy-out is not a source
// assignment: it charges nothing and realizes no lag, even into a
// signal.
func (c *bcompiler) compileCall(s *spec.Call) {
	proc := s.Proc
	if proc == nil {
		c.fail("call to nil procedure")
		return
	}
	if len(s.Args) != len(proc.Params) {
		c.fail("call %s arity mismatch", proc.Name)
		return
	}
	if c.active[proc] {
		c.fail("procedure %s recurses; calls are inlined", proc.Name)
		return
	}
	if len(c.active) >= batchCallDepth {
		c.fail("procedure nesting exceeds %d", batchCallDepth)
		return
	}
	c.active[proc] = true
	defer delete(c.active, proc)

	c.emit(Instr{op: OpCharge, charge: costCall})
	for _, prm := range proc.Params {
		c.addLocal(prm.Var, nil)
	}
	for _, l := range proc.Locals {
		c.addLocal(l, nil)
	}
	for i, prm := range proc.Params {
		switch prm.Mode {
		case spec.ModeIn, spec.ModeInOut:
			c.compileAssign(spec.Ref(prm.Var), s.Args[i], true)
		default:
			ref := c.prog.res[prm.Var]
			c.emit(Instr{op: OpClear, slot: ref.idx, clearVal: ZeroValue(prm.Var.Type)})
		}
	}
	for _, l := range proc.Locals {
		ref := c.prog.res[l]
		c.emit(Instr{op: OpClear, slot: ref.idx, clearVal: ZeroValue(l.Type)})
	}
	c.scopes = append(c.scopes, scope{isCall: true})
	c.stmts(proc.Body)
	c.popScope()
	for i, prm := range proc.Params {
		if prm.Mode == spec.ModeOut || prm.Mode == spec.ModeInOut {
			c.compileAssign(s.Args[i], spec.Ref(prm.Var), false)
		}
	}
}
