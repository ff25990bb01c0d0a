package sim

import (
	"fmt"
	"sort"

	"repro/internal/spec"
)

// This file is the read side of the compiled programs, shared by the
// Engine and by any other executor that steps them (the model checker
// in internal/verify): the instruction stream, expression and
// condition evaluation, and the persistent lvalue rebuild. A Frame is
// the statement language's one expression evaluator: right-hand sides,
// conditions, and the index and slice bounds along a store's lvalue
// path all run as compiled expressions (expr.go). Every store stays
// with the executor, so each keeps its own ownership rules — the
// Engine mutates containers it provably owns in place, the checker
// shares values between states and never mutates one.

// Frame evaluates one compiled program's expressions against storage
// its caller owns: the process's local slots and the global slots in
// Engine.Globals order, where a signal holds its committed value (a
// write pending in the current delta is invisible to reads). A Frame
// only reads; it is not safe for concurrent use.
type Frame struct {
	Locals, Globals []Value
	prog            *Program
	stack           []Value
	onFail          func(format string, args ...any)
}

// NewFrame returns a Frame for prog with no storage bound. fail
// receives every runtime error and must not return (it may panic).
func NewFrame(prog *Program, fail func(format string, args ...any)) *Frame {
	f := &Frame{}
	f.init(prog, fail)
	return f
}

func (f *Frame) init(prog *Program, fail func(format string, args ...any)) {
	f.prog = prog
	f.stack = make([]Value, 0, prog.maxStack)
	f.onFail = fail
}

// fail aborts evaluation with a runtime error through the caller's
// callback.
func (f *Frame) fail(format string, args ...any) {
	f.onFail(format, args...)
	// The callback must not return; guard against a misbehaving one
	// rather than continuing with corrupt state.
	panic(fmt.Sprintf("sim: Frame fail callback returned: "+format, args...))
}

// load reads a slot without scope checks.
func (f *Frame) load(ref slotRef) Value {
	if ref.sp == LocalSlot {
		return f.Locals[ref.idx]
	}
	return f.Globals[ref.idx]
}

// Cond evaluates an OpBranch's condition.
func (f *Frame) Cond(in *Instr) bool { return f.condBool(in.fcond, in.ccond) }

// Until evaluates the until condition of an OpWait that has one.
func (f *Frame) Until(in *Instr) bool {
	m := in.wait
	return f.condBool(m.funtil, m.cuntil)
}

// RHS evaluates an OpAssign's right-hand side.
func (f *Frame) RHS(in *Instr) Value { return f.evalC(in.crhs) }

// Apply returns an OpAssign's destination value after storing val into
// it: val coerced to the variable's type for a whole store, otherwise
// cur with the containers along the lvalue path rebuilt and the leaf
// replaced. cur is never mutated; containers off the path are shared.
// cur is nil for a local that was never written; storing into it fails
// unless the store may create the local (see writable).
func (f *Frame) Apply(in *Instr, cur, val Value) Value {
	f.writable(in, cur)
	if len(in.path) == 0 {
		return Coerce(val, in.base.Type)
	}
	return f.applyPath(cur, in.path, val)
}

// writable is the one rule on which stores may reach a slot that holds
// no value yet (a scratch or activation-scoped local before its first
// setLocal-style write): only a whole store the compiler synthesized
// (loop counter, timeout flag, parameter copy-in) creates the local.
// An ordinary assignment to it, or a store along an lvalue path into
// it, fails "variable v not writable". Every executor calls it before
// it stores.
func (f *Frame) writable(in *Instr, cur Value) {
	if cur == nil && (len(in.path) > 0 || !in.create) {
		f.fail("variable %s not writable", in.base.Name)
	}
}

// Behavior returns the behavior the program was compiled from.
func (p *Program) Behavior() *spec.Behavior { return p.beh }

// Locals returns the variables of the program's local slots.
func (p *Program) Locals() []*spec.Variable { return p.locals }

// InitialLocals returns the values the program's local slots start
// from, by slot: a declared behavior variable's initial value, and nil
// for an activation-scoped or scratch slot, which holds no value until
// it is written. The values are shared and must not be mutated.
func (p *Program) InitialLocals() []Value { return p.localInit }

// Code returns the plain program: no OpCharge, no cost model.
func (p *Program) Code() []Instr { return p.code }

// GlobalRefs returns the global slots the program reads or writes,
// ascending: every global an expression or a store target names,
// including the base of every assigned lvalue and any shared timeout
// flag.
func (p *Program) GlobalRefs() []int {
	var refs []int
	for _, ref := range p.res {
		if ref.sp != LocalSlot {
			refs = append(refs, int(ref.idx))
		}
	}
	sort.Ints(refs)
	return refs
}

// Op returns the instruction's opcode.
func (in *Instr) Op() Op { return in.op }

// Target returns the pc an OpJump jumps to, or an OpBranch jumps to
// when its condition is false.
func (in *Instr) Target() int32 { return in.target }

// Dest returns an OpAssign's destination slot.
func (in *Instr) Dest() (Space, int) { return in.lref.sp, int(in.lref.idx) }

// Field returns the record field an OpAssign's lvalue selects directly
// on its variable (B.START, B.DATA(3 downto 0)), or "" for a whole
// store and for a first step that indexes or slices.
func (in *Instr) Field() string {
	if len(in.path) > 0 && in.path[0].kind == 1 {
		return in.path[0].field
	}
	return ""
}

// Clear returns an OpClear's local slot and the immutable zero value it
// receives.
func (in *Instr) Clear() (int, Value) { return int(in.slot), in.clearVal }

// Wait returns an OpWait's statement.
func (in *Instr) Wait() *spec.Wait { return in.wait.w }

// Flag returns the slot of an OpWait's timeout flag (Wait().TimedOut,
// when set): a local, or a shared module variable. The flag's value is
// coerced to the variable's type on store.
func (in *Instr) Flag() (Space, int) { return in.wait.timedOutRef.sp, int(in.wait.timedOutRef.idx) }
