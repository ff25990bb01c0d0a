package hdl

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/bits"
	"repro/internal/spec"
)

// Parse parses and elaborates a source text into a specification system.
// A lexical or syntax error, like most elaboration errors, is an *Error
// whose line and column (counted in bytes) are 1-based. Statements,
// expressions and types nested deeper than 256 levels are rejected.
func Parse(src string) (*spec.System, error) {
	sys, err := parse(src)
	var e *Error
	if errors.As(err, &e) {
		e.Line, e.Col = lineCol(src, e.off)
	}
	return sys, err
}

func parse(src string) (*spec.System, error) {
	p := newParser(src)
	ast, err := p.parseSystem()
	// A lexical error anywhere in the text outranks a syntax error, so
	// past a syntax error the rest of the text is still scanned.
	for err != nil && p.tok.kind != tokEOF {
		p.next()
	}
	if p.lx.err != nil {
		return nil, p.lx.err
	}
	if err != nil {
		return nil, err
	}
	return elaborate(ast)
}

// ParseFile reads and parses a source file.
func ParseFile(path string) (*spec.System, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sys, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s:%w", path, err)
	}
	return sys, nil
}

// elaborator resolves names and types, producing spec IR.
type elaborator struct {
	sys *spec.System
	// moduleVars maps module-level variable names (globally visible, as
	// the paper's processes reference remote variables directly).
	moduleVars map[string]*spec.Variable
	behaviors  map[string]*spec.Behavior
}

// scope is a lexical scope for behavior/procedure elaboration.
type scope struct {
	vars   map[string]*spec.Variable
	parent *scope
	e      *elaborator
	beh    *spec.Behavior
	proc   *spec.Procedure
}

func (s *scope) lookup(name string) *spec.Variable {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v
		}
	}
	return s.e.moduleVars[name]
}

func (s *scope) child() *scope {
	return &scope{vars: make(map[string]*spec.Variable), parent: s, e: s.e, beh: s.beh, proc: s.proc}
}

func elaborate(ast *astSystem) (*spec.System, error) {
	e := &elaborator{
		sys:        spec.NewSystem(ast.name),
		moduleVars: make(map[string]*spec.Variable),
		behaviors:  make(map[string]*spec.Behavior),
	}

	// Pass 1: modules, variables, behavior shells with locals and
	// procedure signatures, so bodies can reference anything declared
	// anywhere.
	type behWork struct {
		astB  *astBehavior
		beh   *spec.Behavior
		scope *scope
		procs []*astProc
	}
	var work []behWork
	for _, am := range ast.modules {
		m := e.sys.AddModule(am.name)
		for _, av := range am.vars {
			t, err := e.typeOf(av.typ)
			if err != nil {
				return nil, err
			}
			if _, dup := e.moduleVars[av.name]; dup {
				return nil, errAt(av.pos, "duplicate module variable %q", av.name)
			}
			v := spec.NewVar(av.name, t)
			if av.isSignal {
				v.Kind = spec.KindSignal
			}
			m.AddVariable(v)
			e.moduleVars[av.name] = v
			if av.init != nil {
				init, err := e.constExpr(av.init, t)
				if err != nil {
					return nil, err
				}
				v.Init = init
			}
		}
		for _, ab := range am.behaviors {
			if _, dup := e.behaviors[ab.name]; dup {
				return nil, errAt(ab.pos, "duplicate behavior %q", ab.name)
			}
			b := spec.NewBehavior(ab.name)
			b.Server = ab.server
			m.AddBehavior(b)
			e.behaviors[ab.name] = b
			sc := &scope{vars: make(map[string]*spec.Variable), e: e, beh: b}
			for _, av := range ab.vars {
				t, err := e.typeOf(av.typ)
				if err != nil {
					return nil, err
				}
				if _, dup := sc.vars[av.name]; dup {
					return nil, errAt(av.pos, "duplicate variable %q in behavior %s", av.name, ab.name)
				}
				v := b.AddVar(av.name, t)
				if av.isSignal {
					v.Kind = spec.KindSignal
				}
				if av.init != nil {
					init, err := e.constExpr(av.init, t)
					if err != nil {
						return nil, err
					}
					v.Init = init
				}
				sc.vars[av.name] = v
			}
			for _, ap := range ab.procs {
				proc := &spec.Procedure{Name: ap.name}
				for _, prm := range ap.params {
					t, err := e.typeOf(prm.typ)
					if err != nil {
						return nil, err
					}
					mode := spec.ModeIn
					switch prm.mode {
					case "out":
						mode = spec.ModeOut
					case "inout":
						mode = spec.ModeInOut
					}
					proc.Params = append(proc.Params, spec.Param{Var: spec.NewVar(prm.name, t), Mode: mode})
				}
				for _, av := range ap.vars {
					t, err := e.typeOf(av.typ)
					if err != nil {
						return nil, err
					}
					proc.Locals = append(proc.Locals, spec.NewVar(av.name, t))
				}
				b.AddProc(proc)
			}
			work = append(work, behWork{astB: ab, beh: b, scope: sc, procs: ab.procs})
		}
	}

	// Pass 2: bodies.
	for _, w := range work {
		for i, ap := range w.procs {
			proc := w.beh.Procedures[i]
			psc := w.scope.child()
			psc.proc = proc
			for _, prm := range proc.Params {
				psc.vars[prm.Var.Name] = prm.Var
			}
			for _, l := range proc.Locals {
				psc.vars[l.Name] = l
			}
			body, err := e.stmts(psc, ap.body)
			if err != nil {
				return nil, err
			}
			proc.Body = body
		}
		body, err := e.stmts(w.scope, w.astB.body)
		if err != nil {
			return nil, err
		}
		w.beh.Body = body
	}

	// Channels.
	for _, ac := range ast.channels {
		b := e.behaviors[ac.behavior]
		if b == nil {
			return nil, errAt(ac.pos, "channel %s: unknown behavior %q", ac.name, ac.behavior)
		}
		v := e.moduleVars[ac.variable]
		if v == nil {
			return nil, errAt(ac.pos, "channel %s: unknown module variable %q", ac.name, ac.variable)
		}
		dir := spec.Read
		if ac.write {
			dir = spec.Write
		}
		e.sys.AddChannel(&spec.Channel{Name: ac.name, Accessor: b, Var: v, Dir: dir})
	}

	if errs := e.sys.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("elaborated system invalid: %w", errs[0])
	}
	return e.sys, nil
}

func (e *elaborator) typeOf(t *astType) (spec.Type, error) {
	switch t.kind {
	case "bit":
		return spec.Bit, nil
	case "boolean":
		return spec.Bool, nil
	case "integer":
		return spec.Integer, nil
	case "bit_vector":
		hi, err := e.constInt(t.hi)
		if err != nil {
			return nil, err
		}
		lo, err := e.constInt(t.lo)
		if err != nil {
			return nil, err
		}
		if lo != 0 {
			return nil, errAt(t.pos, "bit_vector must end at 0 (got %d downto %d)", hi, lo)
		}
		if hi < lo {
			return nil, errAt(t.pos, "empty bit_vector range (%d downto %d)", hi, lo)
		}
		return spec.BitVector(int(hi + 1)), nil
	case "array":
		lo, err := e.constInt(t.aLo)
		if err != nil {
			return nil, err
		}
		hi, err := e.constInt(t.aHi)
		if err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, errAt(t.pos, "empty array range (%d to %d)", lo, hi)
		}
		elem, err := e.typeOf(t.elem)
		if err != nil {
			return nil, err
		}
		return spec.ArrayType{Length: int(hi - lo + 1), Lo: int(lo), Elem: elem}, nil
	}
	return nil, errAt(t.pos, "unknown type %q", t.kind)
}

// constInt evaluates a compile-time integer expression (literals and
// arithmetic).
func (e *elaborator) constInt(x astExpr) (int64, error) {
	switch x := x.(type) {
	case *astNum:
		return x.v, nil
	case *astBinary:
		a, err := e.constInt(x.x)
		if err != nil {
			return 0, err
		}
		b, err := e.constInt(x.y)
		if err != nil {
			return 0, err
		}
		switch x.op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, errAt(x.tok, "division by zero in constant")
			}
			return a / b, nil
		}
	case *astUnary:
		if x.op == "-" {
			v, err := e.constInt(x.x)
			return -v, err
		}
	}
	return 0, errAt(x.pos(), "expected constant integer expression")
}

// constExpr elaborates a constant initializer against the declared type.
func (e *elaborator) constExpr(x astExpr, t spec.Type) (spec.Expr, error) {
	switch x := x.(type) {
	case *astNum:
		if bt, ok := t.(spec.BitVectorType); ok {
			return spec.Vec(bits.FromInt(x.v, bt.Width)), nil
		}
		return spec.Int(x.v), nil
	case *astVec:
		v, err := vecOf(x)
		if err != nil {
			return nil, err
		}
		return spec.Vec(v), nil
	case *astBit:
		return spec.VecString(x.v), nil
	case *astBool:
		if x.v {
			return spec.True, nil
		}
		return spec.False, nil
	}
	v, err := e.constInt(x)
	if err != nil {
		return nil, errAt(x.pos(), "initializer must be constant")
	}
	return spec.Int(v), nil
}

func vecOf(x *astVec) (bits.Vector, error) {
	if !x.hex {
		return bits.Parse(x.v)
	}
	v := bits.New(4 * len(x.v))
	for i, c := range x.v {
		var nib uint64
		switch {
		case c >= '0' && c <= '9':
			nib = uint64(c - '0')
		case c >= 'A' && c <= 'F':
			nib = uint64(c-'A') + 10
		case c >= 'a' && c <= 'f':
			nib = uint64(c-'a') + 10
		default:
			return bits.Vector{}, fmt.Errorf("invalid hex digit %q", c)
		}
		pos := (len(x.v) - 1 - i) * 4
		for b := 0; b < 4; b++ {
			if nib&(1<<b) != 0 {
				v = v.SetBit(pos+b, true)
			}
		}
	}
	return v, nil
}

// ---- statements ----

func (e *elaborator) stmts(sc *scope, in []astStmt) ([]spec.Stmt, error) {
	var out []spec.Stmt
	for _, s := range in {
		st, err := e.stmt(sc, s)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func (e *elaborator) stmt(sc *scope, s astStmt) (spec.Stmt, error) {
	switch s := s.(type) {
	case *astAssign:
		lhs, err := e.expr(sc, s.lhs)
		if err != nil {
			return nil, err
		}
		if spec.BaseVar(lhs) == nil {
			return nil, errAt(s.tok, "assignment target is not a variable")
		}
		rhs, err := e.expr(sc, s.rhs)
		if err != nil {
			return nil, err
		}
		rhs = coerceTo(rhs, lhs.Type())
		kind := spec.AssignVariable
		if s.signal {
			kind = spec.AssignSignal
		}
		return &spec.Assign{Kind: kind, LHS: lhs, RHS: rhs}, nil
	case *astIf:
		cond, err := e.boolExpr(sc, s.cond)
		if err != nil {
			return nil, err
		}
		then, err := e.stmts(sc, s.then)
		if err != nil {
			return nil, err
		}
		st := &spec.If{Cond: cond, Then: then}
		for _, arm := range s.elifs {
			c, err := e.boolExpr(sc, arm.cond)
			if err != nil {
				return nil, err
			}
			body, err := e.stmts(sc, arm.body)
			if err != nil {
				return nil, err
			}
			st.Elifs = append(st.Elifs, spec.ElseIf{Cond: c, Body: body})
		}
		if s.els != nil {
			body, err := e.stmts(sc, s.els)
			if err != nil {
				return nil, err
			}
			st.Else = body
		}
		return st, nil
	case *astFor:
		from, err := e.expr(sc, s.from)
		if err != nil {
			return nil, err
		}
		to, err := e.expr(sc, s.to)
		if err != nil {
			return nil, err
		}
		// The loop variable is implicitly a behavior-local integer if
		// not already declared.
		v := sc.lookup(s.v)
		if v == nil {
			v = sc.beh.AddVar(s.v, spec.Integer)
			sc.vars[s.v] = v
		}
		body, err := e.stmts(sc, s.body)
		if err != nil {
			return nil, err
		}
		return &spec.For{Var: v, From: from, To: to, Body: body}, nil
	case *astWhile:
		cond, err := e.boolExpr(sc, s.cond)
		if err != nil {
			return nil, err
		}
		body, err := e.stmts(sc, s.body)
		if err != nil {
			return nil, err
		}
		return &spec.While{Cond: cond, Body: body}, nil
	case *astLoop:
		body, err := e.stmts(sc, s.body)
		if err != nil {
			return nil, err
		}
		return &spec.Loop{Body: body}, nil
	case *astExit:
		return &spec.Exit{}, nil
	case *astRet:
		return &spec.Return{}, nil
	case *astNull:
		return &spec.Null{}, nil
	case *astWait:
		w := &spec.Wait{}
		for _, n := range s.on {
			v := sc.lookup(n.text)
			if v == nil {
				return nil, errAt(n, "wait on unknown name %q", n.text)
			}
			w.On = append(w.On, v)
		}
		if s.until != nil {
			c, err := e.boolExpr(sc, s.until)
			if err != nil {
				return nil, err
			}
			w.Until = c
		}
		if s.dur != nil {
			d, err := e.constInt(s.dur)
			if err != nil {
				return nil, err
			}
			w.For = d
			w.HasFor = true
		}
		return w, nil
	case *astCall:
		proc := sc.beh.FindProc(s.name)
		if proc == nil {
			return nil, errAt(s.tok, "unknown procedure %q in behavior %s", s.name, sc.beh.Name)
		}
		if len(s.args) != len(proc.Params) {
			return nil, errAt(s.tok, "procedure %s takes %d arguments, got %d",
				s.name, len(proc.Params), len(s.args))
		}
		args := make([]spec.Expr, len(s.args))
		for i, a := range s.args {
			x, err := e.expr(sc, a)
			if err != nil {
				return nil, err
			}
			if proc.Params[i].Mode == spec.ModeIn {
				x = coerceTo(x, proc.Params[i].Var.Type)
			} else if spec.BaseVar(x) == nil {
				return nil, errAt(a.pos(), "argument %d of %s must be a variable (%s parameter)",
					i+1, s.name, proc.Params[i].Mode)
			}
			args[i] = x
		}
		return spec.CallProc(proc, args...), nil
	}
	return nil, fmt.Errorf("hdl: cannot elaborate %T", s)
}

// ---- expressions ----

func (e *elaborator) boolExpr(sc *scope, x astExpr) (spec.Expr, error) {
	c, err := e.expr(sc, x)
	if err != nil {
		return nil, err
	}
	return c, nil
}

var binOps = map[string]spec.Op{
	"+": spec.OpAdd, "-": spec.OpSub, "*": spec.OpMul, "/": spec.OpDiv,
	"mod": spec.OpMod, "=": spec.OpEq, "/=": spec.OpNeq,
	"<": spec.OpLt, "<=": spec.OpLe, ">": spec.OpGt, ">=": spec.OpGe,
	"and": spec.OpAnd, "or": spec.OpOr, "xor": spec.OpXor, "&": spec.OpConcat,
	"sll": spec.OpShl, "srl": spec.OpShr,
}

func (e *elaborator) expr(sc *scope, x astExpr) (spec.Expr, error) {
	switch x := x.(type) {
	case *astNum:
		return spec.Int(x.v), nil
	case *astBit:
		return spec.VecString(x.v), nil
	case *astVec:
		v, err := vecOf(x)
		if err != nil {
			return nil, errAt(x.tok, "%v", err)
		}
		return spec.Vec(v), nil
	case *astBool:
		if x.v {
			return spec.True, nil
		}
		return spec.False, nil
	case *astName:
		v := sc.lookup(x.tok.text)
		if v == nil {
			return nil, errAt(x.tok, "unknown name %q", x.tok.text)
		}
		return spec.Ref(v), nil
	case *astField:
		base, err := e.expr(sc, x.x)
		if err != nil {
			return nil, err
		}
		r, ok := base.Type().(spec.RecordType)
		if !ok {
			return nil, errAt(x.tok, "field access on non-record value")
		}
		if r.FieldType(x.field) == nil {
			return nil, errAt(x.tok, "no field %q on record %s", x.field, r.Name)
		}
		return spec.FieldOf(base, x.field), nil
	case *astUnary:
		sub, err := e.expr(sc, x.x)
		if err != nil {
			return nil, err
		}
		if x.op == "not" {
			return spec.Not(sub), nil
		}
		return spec.Neg(sub), nil
	case *astBinary:
		a, err := e.expr(sc, x.x)
		if err != nil {
			return nil, err
		}
		b, err := e.expr(sc, x.y)
		if err != nil {
			return nil, err
		}
		op, ok := binOps[x.op]
		if !ok {
			return nil, errAt(x.tok, "unsupported operator %q", x.op)
		}
		a, b = harmonize(op, a, b)
		return spec.Bin(op, a, b), nil
	case *astApply:
		return e.apply(sc, x)
	}
	return nil, fmt.Errorf("hdl: cannot elaborate expression %T", x)
}

// apply disambiguates name(args): slice, array index, or a builtin
// conversion (conv_integer, conv_bit_vector).
func (e *elaborator) apply(sc *scope, x *astApply) (spec.Expr, error) {
	// Builtin conversions.
	if name, ok := x.fn.(*astName); ok && x.hi == nil {
		switch name.tok.text {
		case "conv_integer":
			if len(x.args) != 1 {
				return nil, errAt(name.tok, "conv_integer takes one argument")
			}
			a, err := e.expr(sc, x.args[0])
			if err != nil {
				return nil, err
			}
			return spec.ToInt(a), nil
		case "conv_integer_signed":
			if len(x.args) != 1 {
				return nil, errAt(name.tok, "conv_integer_signed takes one argument")
			}
			a, err := e.expr(sc, x.args[0])
			if err != nil {
				return nil, err
			}
			return spec.ToIntSigned(a), nil
		case "conv_bit_vector":
			if len(x.args) != 2 {
				return nil, errAt(name.tok, "conv_bit_vector takes (value, width)")
			}
			a, err := e.expr(sc, x.args[0])
			if err != nil {
				return nil, err
			}
			w, err := e.constInt(x.args[1])
			if err != nil {
				return nil, err
			}
			return spec.ToVec(a, int(w)), nil
		}
	}

	base, err := e.expr(sc, x.fn)
	if err != nil {
		return nil, err
	}
	// Slice form.
	if x.hi != nil {
		hi, err := e.constInt(x.hi)
		if err != nil {
			return nil, errAt(x.hi.pos(), "slice bounds must be constant")
		}
		lo, err := e.constInt(x.lo)
		if err != nil {
			return nil, errAt(x.lo.pos(), "slice bounds must be constant")
		}
		bt, ok := base.Type().(spec.BitVectorType)
		if !ok {
			return nil, errAt(x.fn.pos(), "slicing a non-bit_vector value")
		}
		if lo < 0 || hi < lo || int(hi) >= bt.Width {
			return nil, errAt(x.fn.pos(), "slice (%d downto %d) out of range for width %d", hi, lo, bt.Width)
		}
		return spec.SliceBits(base, int(hi), int(lo)), nil
	}
	// Index form.
	if _, ok := base.Type().(spec.ArrayType); ok {
		if len(x.args) != 1 {
			return nil, errAt(x.fn.pos(), "array index takes one subscript")
		}
		idx, err := e.expr(sc, x.args[0])
		if err != nil {
			return nil, err
		}
		if _, isVec := idx.Type().(spec.BitVectorType); isVec {
			idx = spec.ToInt(idx)
		}
		return spec.At(base, idx), nil
	}
	// Single-bit select of a vector: v(i) with constant i.
	if bt, ok := base.Type().(spec.BitVectorType); ok && len(x.args) == 1 {
		i, err := e.constInt(x.args[0])
		if err == nil {
			if i < 0 || int(i) >= bt.Width {
				return nil, errAt(x.fn.pos(), "bit index %d out of range for width %d", i, bt.Width)
			}
			return spec.SliceBits(base, int(i), int(i)), nil
		}
	}
	return nil, errAt(x.fn.pos(), "cannot apply arguments to a %s value", base.Type())
}

// coerceTo inserts a conversion so rhs matches the target type.
func coerceTo(rhs spec.Expr, target spec.Type) spec.Expr {
	switch t := target.(type) {
	case spec.BitVectorType:
		if _, ok := rhs.Type().(spec.IntegerType); ok {
			return spec.ToVec(rhs, t.Width)
		}
	case spec.BitType:
		if _, ok := rhs.Type().(spec.IntegerType); ok {
			return spec.ToVec(rhs, 1)
		}
	case spec.IntegerType:
		if _, ok := rhs.Type().(spec.BitVectorType); ok {
			return spec.ToIntSigned(rhs)
		}
	}
	return rhs
}

// harmonize coerces mixed integer/bit-vector operands: the integer side
// is converted to the vector side's width (except for shifts, whose
// right operand stays integral).
func harmonize(op spec.Op, a, b spec.Expr) (spec.Expr, spec.Expr) {
	if op == spec.OpShl || op == spec.OpShr || op == spec.OpConcat {
		return a, b
	}
	av, aIsVec := a.Type().(spec.BitVectorType)
	bv, bIsVec := b.Type().(spec.BitVectorType)
	_, aIsInt := a.Type().(spec.IntegerType)
	_, bIsInt := b.Type().(spec.IntegerType)
	switch {
	case aIsVec && bIsInt:
		return a, spec.ToVec(b, av.Width)
	case aIsInt && bIsVec:
		return spec.ToVec(a, bv.Width), b
	}
	return a, b
}
