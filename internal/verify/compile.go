// Package verify is an exhaustive, bounded model checker for the
// protocol processes that protocol generation emits. It compiles each
// behavior of a refined system into a flat communicating FSM, explores
// the product state space with a parallel breadth-first search over a
// deduplicating state store (with a sleep-set partial-order reduction),
// and checks deadlock-freedom, driver mutual exclusion on shared bus
// lines, bounded-response liveness and end-to-end data delivery. Any
// violation is reported with a minimal interleaving Counterexample that
// replays deterministically through internal/sim.
//
// The checker interprets specification statements with the simulator's
// own sim.Evaluator, so expression and assignment semantics cannot
// drift between the two engines. Its scheduling model is a sound
// abstraction of the simulator's: within a delta cycle any enabled
// process may run next (the checker branches over all of them, a
// superset of the simulator's fixed process order), while relative
// timeout ordering is preserved exactly by per-process remaining-clock
// counters and a deterministic quiescent tick.
package verify

import (
	"fmt"

	"repro/internal/spec"
)

// opcode is the instruction set of a compiled behavior. Control flow is
// flattened to branches so a process's continuation is a single program
// counter — the only control state that must live in the product state.
type opcode uint8

const (
	opAssign opcode = iota // execute assign.LHS := assign.RHS
	opBranch               // fall through when cond holds, else jump to target
	opJump                 // jump to target
	opClear                // reset local v to its zero value (inlined call entry)
	opWait                 // block on wait (bounded or condition wait)
	opEnd                  // process finished
)

type instr struct {
	op     opcode
	assign *spec.Assign
	cond   spec.Expr
	target int32
	wait   *spec.Wait
	v      *spec.Variable
}

// program is one behavior compiled to a flat FSM. Locals (behavior
// variables, inlined procedure parameters and locals, loop and timeout
// scratch variables) occupy fixed slots; reads/writes record the
// *global* footprint used for the independence relation of the
// partial-order reduction.
type program struct {
	beh    *spec.Behavior
	code   []instr
	locals []*spec.Variable
	lslot  map[*spec.Variable]int
	reads  map[*spec.Variable]bool
	writes map[*spec.Variable]bool
	temps  int
}

// scope is one enclosing loop or inlined call during compilation,
// collecting the forward jumps that leave it. Exit leaves the innermost
// scope of either kind (exiting a call returns from it); Return leaves
// the innermost call scope, skipping loops. This is the simulator's
// lowering (internal/sim's compiler), so both engines agree on where
// every exit lands.
type scope struct {
	isCall  bool
	patches []int
}

type compiler struct {
	m      *machine
	prog   *program
	scopes []scope
	// endRefs collects exits and returns outside any scope: they end
	// the behavior.
	endRefs []int
	active  map[*spec.Procedure]bool
	err     error
}

func (m *machine) compile(beh *spec.Behavior) (*program, error) {
	prog := &program{
		beh:    beh,
		lslot:  make(map[*spec.Variable]int),
		reads:  make(map[*spec.Variable]bool),
		writes: make(map[*spec.Variable]bool),
	}
	c := &compiler{m: m, prog: prog, active: make(map[*spec.Procedure]bool)}
	for _, v := range beh.Variables {
		c.addLocal(v)
	}
	c.stmts(beh.Body)
	end := c.emit(instr{op: opEnd})
	for _, at := range c.endRefs {
		prog.code[at].target = int32(end)
	}
	if c.err != nil {
		return nil, fmt.Errorf("behavior %s: %w", beh.Name, c.err)
	}
	return prog, nil
}

func (c *compiler) emit(i instr) int {
	c.prog.code = append(c.prog.code, i)
	return len(c.prog.code) - 1
}

func (c *compiler) here() int32 { return int32(len(c.prog.code)) }

func (c *compiler) addLocal(v *spec.Variable) {
	if _, ok := c.prog.lslot[v]; ok {
		return
	}
	c.prog.lslot[v] = len(c.prog.locals)
	c.prog.locals = append(c.prog.locals, v)
}

func (c *compiler) newTemp(name string, t spec.Type) *spec.Variable {
	v := spec.NewVar(fmt.Sprintf("__%s_%d", name, c.prog.temps), t)
	c.prog.temps++
	c.addLocal(v)
	return v
}

// read / write classify a referenced variable: locals stay out of the
// footprint, known globals enter it, and anything else is an undeclared
// scratch local (loop variables, timeout flags) registered on the fly.
func (c *compiler) read(v *spec.Variable) {
	if _, ok := c.prog.lslot[v]; ok {
		return
	}
	if _, ok := c.m.gslot[v]; ok {
		c.prog.reads[v] = true
		return
	}
	c.addLocal(v)
}

func (c *compiler) write(v *spec.Variable) {
	if _, ok := c.prog.lslot[v]; ok {
		return
	}
	if _, ok := c.m.gslot[v]; ok {
		c.prog.writes[v] = true
		return
	}
	c.addLocal(v)
}

func (c *compiler) scanExpr(e spec.Expr) {
	spec.WalkExpr(e, func(x spec.Expr) bool {
		if r, ok := x.(*spec.VarRef); ok {
			c.read(r.Var)
		}
		return true
	})
}

func (c *compiler) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *compiler) stmts(list []spec.Stmt) {
	for _, s := range list {
		if c.err != nil {
			return
		}
		c.stmt(s)
	}
}

func (c *compiler) stmt(s spec.Stmt) {
	switch s := s.(type) {
	case *spec.Assign:
		c.compileAssign(s)
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
func (c *compiler) jumpOut(callsOnly bool) {
	j := c.emit(instr{op: opJump})
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if callsOnly && !c.scopes[i].isCall {
			continue
		}
		c.scopes[i].patches = append(c.scopes[i].patches, j)
		return
	}
	c.endRefs = append(c.endRefs, j)
}

// popScope closes the innermost scope: its collected jumps land here.
func (c *compiler) popScope() {
	top := len(c.scopes) - 1
	for _, j := range c.scopes[top].patches {
		c.prog.code[j].target = c.here()
	}
	c.scopes = c.scopes[:top]
}

func (c *compiler) compileAssign(s *spec.Assign) {
	if spec.BaseVar(s.LHS) == nil {
		c.fail("assignment to non-lvalue %s", s.LHS)
		return
	}
	c.scanExpr(s.RHS)
	c.scanExpr(s.LHS) // index/slice-bound reads; base read is conservative
	c.write(spec.BaseVar(s.LHS))
	c.emit(instr{op: opAssign, assign: s})
}

func (c *compiler) compileIf(s *spec.If) {
	var toEnd []int
	arm := func(cond spec.Expr, body []spec.Stmt, last bool) {
		c.scanExpr(cond)
		br := c.emit(instr{op: opBranch, cond: cond})
		c.stmts(body)
		if !last {
			toEnd = append(toEnd, c.emit(instr{op: opJump}))
		}
		c.prog.code[br].target = c.here()
	}
	lastArm := len(s.Elifs)
	arm(s.Cond, s.Then, lastArm == 0 && len(s.Else) == 0)
	for i, e := range s.Elifs {
		arm(e.Cond, e.Body, i == lastArm-1 && len(s.Else) == 0)
	}
	c.stmts(s.Else)
	for _, j := range toEnd {
		c.prog.code[j].target = c.here()
	}
}

// compileFor lowers a for loop as the simulator does: From and To are
// evaluated once into hidden integer counters before the first
// iteration, and the loop variable is assigned from the hidden counter
// at the top of every iteration, so a body that writes the loop
// variable does not change the iteration count.
func (c *compiler) compileFor(s *spec.For) {
	i := c.newTemp("i", spec.Integer)
	to := c.newTemp("to", spec.Integer)
	c.scanExpr(s.From)
	c.scanExpr(s.To)
	c.emit(instr{op: opAssign, assign: spec.AssignVar(spec.Ref(i), s.From)})
	c.emit(instr{op: opAssign, assign: spec.AssignVar(spec.Ref(to), s.To)})
	head := c.here()
	br := c.emit(instr{op: opBranch, cond: spec.Le(spec.Ref(i), spec.Ref(to))})
	c.compileAssign(spec.AssignVar(spec.Ref(s.Var), spec.Ref(i)))
	c.scopes = append(c.scopes, scope{})
	c.stmts(s.Body)
	c.emit(instr{op: opAssign, assign: spec.AssignVar(spec.Ref(i), spec.Add(spec.Ref(i), spec.Int(1)))})
	c.emit(instr{op: opJump, target: head})
	c.prog.code[br].target = c.here()
	c.popScope()
}

func (c *compiler) compileWhile(s *spec.While) {
	head := c.here()
	c.scanExpr(s.Cond)
	br := c.emit(instr{op: opBranch, cond: s.Cond})
	c.scopes = append(c.scopes, scope{})
	c.stmts(s.Body)
	c.emit(instr{op: opJump, target: head})
	c.prog.code[br].target = c.here()
	c.popScope()
}

func (c *compiler) compileLoop(s *spec.Loop) {
	head := c.here()
	c.scopes = append(c.scopes, scope{})
	c.stmts(s.Body)
	c.emit(instr{op: opJump, target: head})
	c.popScope()
}

func (c *compiler) compileWait(s *spec.Wait) {
	if len(s.On) > 0 {
		c.fail("'wait on' sensitivity lists are not supported by the model checker " +
			"(fixed-delay and hardwired-port buses are rate-matched by construction; simulate them instead)")
		return
	}
	if s.Until == nil && !s.HasFor {
		c.fail("'wait' forever cannot be model-checked (the process would never terminate)")
		return
	}
	if s.HasFor && s.For < 0 {
		c.fail("negative wait duration %d", s.For)
		return
	}
	if s.Until != nil {
		c.scanExpr(s.Until)
	}
	if s.TimedOut != nil {
		c.addLocal(s.TimedOut)
	}
	c.emit(instr{op: opWait, wait: s})
}

// compileCall inlines the procedure body: copy-in assignments, cleared
// Out params and locals, the body with Return lowered to a jump past
// it, then copy-out assignments. Inlining keeps the program counter the
// complete control state (no call stack in the product state); the
// generated accessor/server procedures never recurse.
func (c *compiler) compileCall(s *spec.Call) {
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
		c.fail("procedure %s recurses; the checker inlines calls and cannot bound recursion", proc.Name)
		return
	}
	c.active[proc] = true
	defer delete(c.active, proc)

	// Procedure storage is registered once; distinct call sites share
	// the slots, which is safe because every activation clears or
	// copies-in each one on entry.
	for _, prm := range proc.Params {
		c.addLocal(prm.Var)
	}
	for _, l := range proc.Locals {
		c.addLocal(l)
	}
	for i, prm := range proc.Params {
		switch prm.Mode {
		case spec.ModeIn, spec.ModeInOut:
			c.scanExpr(s.Args[i])
			c.emit(instr{op: opAssign, assign: spec.AssignVar(spec.Ref(prm.Var), s.Args[i])})
		default:
			c.emit(instr{op: opClear, v: prm.Var})
		}
	}
	for _, l := range proc.Locals {
		c.emit(instr{op: opClear, v: l})
	}
	c.scopes = append(c.scopes, scope{isCall: true})
	c.stmts(proc.Body)
	c.popScope()
	for i, prm := range proc.Params {
		if prm.Mode == spec.ModeOut || prm.Mode == spec.ModeInOut {
			if spec.BaseVar(s.Args[i]) == nil {
				c.fail("call %s: out argument %d is not an lvalue", proc.Name, i)
				return
			}
			c.scanExpr(s.Args[i])
			c.write(spec.BaseVar(s.Args[i]))
			c.emit(instr{op: opAssign, assign: spec.AssignVar(s.Args[i], spec.Ref(prm.Var))})
		}
	}
}
