package sim

import (
	"repro/internal/bits"
	"repro/internal/spec"
)

// This file compiles expressions into flat postfix programs, which a
// Frame evaluates (frame.go): the statement language's one expression
// evaluator. Every expression a program holds — right-hand sides,
// branch and wait conditions, and the index and slice bounds along a
// store's lvalue path — compiles at NewEngine, and a construct the
// compiler does not lower is a NewEngine error that names the
// expression. Evaluation is a loop over a few preresolved ops on a
// reusable value stack: no interface dispatch per tree node and no map
// lookup per variable read.
//
// The rules that fix its semantics:
//
//   - Operands evaluate left to right, so a failing operand fails at
//     the same point in the run.
//   - An indexed value is checked to be an array before its index
//     evaluates (xCheckArr).
//   - Every op that can fail carries its originating spec node, so the
//     failure message renders the source expression's text.
//   - Binary operators have one definition, applyBinary (eval.go); the
//     shapes evalC inlines compute the same values.
//
// Conditions have a second, faster tier, fcond (below), for the tiny
// grammar the generated protocols branch and wait on.

type copKind uint8

const (
	xConst copKind = iota
	xLoadLocal
	xLoadGlobal
	xCheckArr // verify the indexed value is an array before the index runs
	xIndex
	xSlice  // dynamic bounds: pops lo, hi, x
	xSliceC // static bounds: pops x
	xField
	xBinary
	xNot
	xNeg
	xConv
)

// cop is one postfix op. Fields are a union keyed by kind.
type cop struct {
	kind copKind
	val  Value          // xConst
	idx  int32          // load slot; xField static index hint (-1 unknown); xSliceC hi
	lo   int32          // xSliceC lo
	op   spec.Op        // xBinary
	v    *spec.Variable // loads: variable, for not-in-scope errors
	name string         // xField: field name
	to   spec.Type      // xConv target
	sgn  bool           // xConv signed
	orig spec.Expr      // originating node for failure messages
}

// cexpr is a compiled expression: postfix ops evaluated over a stack.
// depth is its maximum operand-stack depth, known statically; the
// process stack is pre-sized to the program's deepest expression so
// evaluation never grows it.
type cexpr struct {
	ops   []cop
	depth int
}

// exprBuilder accumulates ops for one expression.
type exprBuilder struct {
	prog *Program
	ops  []cop
	ok   bool
}

// compileExpr compiles e against the program's resolved slots; every
// variable e references must already have been through scanExpr. An
// expression with a construct the compiler does not lower fails the
// compilation.
func (c *bcompiler) compileExpr(e spec.Expr) *cexpr {
	b := &exprBuilder{prog: c.prog, ok: true}
	b.emit(e)
	if !b.ok {
		c.fail("cannot compile expression %s", e)
		return nil
	}
	ce := &cexpr{ops: b.ops}
	d := 0
	for i := range ce.ops {
		switch ce.ops[i].kind {
		case xConst, xLoadLocal, xLoadGlobal:
			d++
		case xIndex, xBinary:
			d--
		case xSlice:
			d -= 2
		}
		if d > ce.depth {
			ce.depth = d
		}
	}
	if ce.depth > c.prog.maxStack {
		c.prog.maxStack = ce.depth
	}
	return ce
}

func (b *exprBuilder) push(op cop) { b.ops = append(b.ops, op) }

func (b *exprBuilder) emit(e spec.Expr) {
	switch e := e.(type) {
	case *spec.IntLit:
		b.push(cop{kind: xConst, val: boxInt(e.Value)})
	case *spec.VecLit:
		b.push(cop{kind: xConst, val: boxVec(e.Value)})
	case *spec.BoolLit:
		b.push(cop{kind: xConst, val: boxBool(e.Value)})
	case *spec.VarRef:
		ref, ok := b.prog.res[e.Var]
		if !ok {
			// scanExpr resolves everything; an unresolved variable means
			// the expression was never scanned — refuse, don't guess.
			b.ok = false
			return
		}
		if ref.sp == LocalSlot {
			b.push(cop{kind: xLoadLocal, idx: ref.idx, v: e.Var})
		} else {
			b.push(cop{kind: xLoadGlobal, idx: ref.idx})
		}
	case *spec.Index:
		b.emit(e.Arr)
		b.push(cop{kind: xCheckArr, orig: e})
		b.emit(e.Index)
		b.push(cop{kind: xIndex, orig: e})
	case *spec.SliceExpr:
		b.emit(e.X)
		hi, hok := e.Hi.(*spec.IntLit)
		lo, lok := e.Lo.(*spec.IntLit)
		if hok && lok {
			b.push(cop{kind: xSliceC, idx: int32(hi.Value), lo: int32(lo.Value), orig: e})
		} else {
			b.emit(e.Hi)
			b.emit(e.Lo)
			b.push(cop{kind: xSlice, orig: e})
		}
	case *spec.FieldRef:
		b.emit(e.X)
		fi := int32(-1)
		if rt, ok := staticExprType(e.X).(spec.RecordType); ok {
			for i := range rt.Fields {
				if rt.Fields[i].Name == e.Field {
					fi = int32(i)
					break
				}
			}
		}
		b.push(cop{kind: xField, idx: fi, name: e.Field, orig: e})
	case *spec.Binary:
		b.emit(e.X)
		b.emit(e.Y)
		b.push(cop{kind: xBinary, op: e.Op})
	case *spec.Unary:
		b.emit(e.X)
		switch e.Op {
		case spec.OpNot:
			b.push(cop{kind: xNot})
		case spec.OpNeg:
			b.push(cop{kind: xNeg})
		default:
			b.ok = false
		}
	case *spec.Conv:
		b.emit(e.X)
		b.push(cop{kind: xConv, to: e.To, sgn: e.Signed, orig: e})
	default:
		b.ok = false
	}
}

// staticExprType infers an expression's type where the spec makes it
// knowable at compile time; nil means unknown. Used only for hints
// (static field indices) that are re-validated at runtime, so a stale
// or wrong inference can never change behavior.
func staticExprType(e spec.Expr) spec.Type {
	switch e := e.(type) {
	case *spec.VarRef:
		return e.Var.Type
	case *spec.FieldRef:
		if rt, ok := staticExprType(e.X).(spec.RecordType); ok {
			return rt.FieldType(e.Field)
		}
	case *spec.Index:
		if at, ok := staticExprType(e.Arr).(spec.ArrayType); ok {
			return at.Elem
		}
	}
	return nil
}

// evalC runs a compiled expression on the frame's reusable stack.
// Failure messages are pinned against the classic-kernel goldens
// (batch_test.go).
func (f *Frame) evalC(ce *cexpr) Value {
	st := f.stack[:0] // pre-sized to the program's deepest expression
	ops := ce.ops
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case xConst:
			st = append(st, op.val)
		case xLoadLocal:
			v := f.Locals[op.idx]
			if v == nil {
				f.fail("variable %s not in scope", op.v.Name)
			}
			st = append(st, v)
		case xLoadGlobal:
			st = append(st, f.Globals[op.idx])
		case xCheckArr:
			if _, ok := st[len(st)-1].(ArrayVal); !ok {
				f.fail("indexing non-array %s", op.orig.(*spec.Index).Arr)
			}
		case xIndex:
			n := len(st)
			av := st[n-2].(ArrayVal) // xCheckArr already verified
			idx := int(asInt(st[n-1])) - av.Lo
			if idx < 0 || idx >= len(av.Elems) {
				f.fail("index %d out of range for %s (len %d)", idx+av.Lo, op.orig.(*spec.Index).Arr, len(av.Elems))
			}
			st[n-2] = av.Elems[idx]
			st = st[:n-1]
		case xSlice:
			n := len(st)
			xv, ok := st[n-3].(VecVal)
			if !ok {
				f.fail("slicing non-vector %s", op.orig.(*spec.SliceExpr).X)
			}
			hi := int(asInt(st[n-2]))
			lo := int(asInt(st[n-1]))
			if lo < 0 || hi >= xv.V.Width() || hi < lo {
				f.fail("slice (%d downto %d) out of range for %s", hi, lo, op.orig.(*spec.SliceExpr).X)
			}
			st[n-3] = boxVec(xv.V.Slice(hi, lo))
			st = st[:n-2]
		case xSliceC:
			n := len(st)
			xv, ok := st[n-1].(VecVal)
			if !ok {
				f.fail("slicing non-vector %s", op.orig.(*spec.SliceExpr).X)
			}
			hi, lo := int(op.idx), int(op.lo)
			if lo < 0 || hi >= xv.V.Width() || hi < lo {
				f.fail("slice (%d downto %d) out of range for %s", hi, lo, op.orig.(*spec.SliceExpr).X)
			}
			st[n-1] = boxVec(xv.V.Slice(hi, lo))
		case xField:
			n := len(st)
			rv, ok := st[n-1].(RecordVal)
			if !ok {
				f.fail("field access on non-record %s", op.orig.(*spec.FieldRef).X)
			}
			fi := int(op.idx)
			if fi < 0 || fi >= len(rv.Type.Fields) || rv.Type.Fields[fi].Name != op.name {
				fi = rv.FieldIndex(op.name)
			}
			if fi < 0 {
				f.fail("no field %s on %s", op.name, op.orig.(*spec.FieldRef).X)
			}
			st[n-1] = rv.Fields[fi]
		case xBinary:
			n := len(st)
			x, y := st[n-2], st[n-1]
			var v Value
			// Inline the dominant operand shapes; everything else (and
			// every mismatch, which may need to fail) goes through the
			// shared applyBinary so results and errors stay identical.
			switch op.op {
			case spec.OpAdd:
				if xi, ok := x.(IntVal); ok {
					if yi, ok := y.(IntVal); ok {
						v = boxInt(xi.V + yi.V)
					}
				}
			case spec.OpSub:
				if xi, ok := x.(IntVal); ok {
					if yi, ok := y.(IntVal); ok {
						v = boxInt(xi.V - yi.V)
					}
				}
			case spec.OpEq:
				if xv, ok := x.(VecVal); ok {
					if yv, ok := y.(VecVal); ok && xv.V.Width() == yv.V.Width() {
						v = boxBool(xv.V.Equal(yv.V))
					}
				}
			case spec.OpNeq:
				if xv, ok := x.(VecVal); ok {
					if yv, ok := y.(VecVal); ok && xv.V.Width() == yv.V.Width() {
						v = boxBool(!xv.V.Equal(yv.V))
					}
				}
			}
			if v == nil {
				v = f.applyBinary(op.op, x, y)
			}
			st[n-2] = v
			st = st[:n-1]
		case xNot:
			n := len(st)
			switch x := st[n-1].(type) {
			case BoolVal:
				st[n-1] = boxBool(!x.V)
			case VecVal:
				st[n-1] = boxVec(x.V.Not())
			default:
				f.fail("not on %s", st[n-1])
			}
		case xNeg:
			n := len(st)
			st[n-1] = boxInt(-asInt(st[n-1]))
		case xConv:
			n := len(st)
			x := st[n-1]
			switch to := op.to.(type) {
			case spec.IntegerType:
				if xv, ok := x.(VecVal); ok && op.sgn {
					st[n-1] = boxInt(xv.V.Int64())
				} else {
					st[n-1] = boxInt(asInt(x))
				}
			case spec.BitVectorType:
				st[n-1] = boxVec(asVec(x, to.Width))
			case spec.BitType:
				st[n-1] = boxVec(asVec(x, 1))
			case spec.BoolType:
				st[n-1] = boxBool(asBool(x))
			default:
				f.fail("unsupported conversion to %s", op.to)
			}
		}
	}
	return st[0]
}

// fillPathHints walks an lvalue's accessor path alongside the base
// variable's static type and records the field index each record step
// resolves to. applyPath re-validates hints against the runtime record
// type, so hints only ever save the name scan — they cannot redirect a
// store.
func fillPathHints(path []accessor, base spec.Type) {
	t := base
	for i := range path {
		a := &path[i]
		switch a.kind {
		case 0:
			if at, ok := t.(spec.ArrayType); ok {
				t = at.Elem
			} else {
				t = nil
			}
		case 1:
			if rt, ok := t.(spec.RecordType); ok {
				t = nil
				for j := range rt.Fields {
					if rt.Fields[j].Name == a.field {
						a.fieldIdx = int32(j)
						t = rt.Fields[j].Type
						break
					}
				}
			} else {
				t = nil
			}
		case 2:
			t = nil
		}
	}
}

// ---- fast boolean conditions ----
//
// Branch and wait conditions are re-evaluated far more often than any
// other expression: wake re-checks a waiting process's until condition
// on every flush that touches its sensitivity. The generated protocols
// use a tiny condition grammar — record-signal fields compared to
// literals, boolean flags, integer counters against constants, glued by
// and/or/not — which evaluates without boxing a single Value. fcond is
// that grammar compiled; any node outside it (or any runtime shape the
// static types did not predict) makes evalF report no answer and the
// caller evaluates the condition's compiled cexpr, so failures and
// exotic cases behave exactly as on that generic path.

type fcondKind uint8

const (
	fAnd fcondKind = iota
	fOr
	fNot
	fConst
	fBoolVar   // boolean-typed variable read
	fCmpSigVec // record signal field (vector) vs vector literal, Eq/Neq
	fCmpInt    // integer variable vs integer literal
)

type fcond struct {
	kind fcondKind
	a, b *fcond

	bval bool // fConst

	ref slotRef // fBoolVar, fCmpInt

	sig  int32        // fCmpSigVec: signal's global slot
	fi   int32        // fCmpSigVec: field index in the declared layout
	decl []spec.Field // fCmpSigVec: the signal's declared fields
	vec  bits.Vector  // fCmpSigVec: literal
	neg  bool         // fCmpSigVec: Neq

	op   spec.Op // fCmpInt comparison
	ival int64   // fCmpInt literal
}

// compileCond compiles a condition into the fast grammar, or nil.
func (c *bcompiler) compileCond(e spec.Expr) *fcond {
	switch e := e.(type) {
	case *spec.BoolLit:
		return &fcond{kind: fConst, bval: e.Value}
	case *spec.VarRef:
		if _, ok := e.Var.Type.(spec.BoolType); !ok {
			return nil
		}
		ref, ok := c.prog.res[e.Var]
		if !ok {
			return nil
		}
		return &fcond{kind: fBoolVar, ref: ref}
	case *spec.Unary:
		if e.Op != spec.OpNot {
			return nil
		}
		a := c.compileCond(e.X)
		if a == nil {
			return nil
		}
		return &fcond{kind: fNot, a: a}
	case *spec.Binary:
		switch e.Op {
		case spec.OpAnd, spec.OpOr:
			a := c.compileCond(e.X)
			if a == nil {
				return nil
			}
			b := c.compileCond(e.Y)
			if b == nil {
				return nil
			}
			k := fAnd
			if e.Op == spec.OpOr {
				k = fOr
			}
			return &fcond{kind: k, a: a, b: b}
		case spec.OpEq, spec.OpNeq:
			if f := c.compileSigVecCmp(e); f != nil {
				return f
			}
			return c.compileIntCmp(e)
		case spec.OpLt, spec.OpLe, spec.OpGt, spec.OpGe:
			return c.compileIntCmp(e)
		}
	}
	return nil
}

// compileSigVecCmp matches sig.FIELD = "lit" (or /=) where the field's
// declared width equals the literal's, so the generic evaluator's width
// alignment is an identity and plain vector equality is exact.
func (c *bcompiler) compileSigVecCmp(e *spec.Binary) *fcond {
	fr, ok := e.X.(*spec.FieldRef)
	if !ok {
		return nil
	}
	vl, ok := e.Y.(*spec.VecLit)
	if !ok {
		return nil
	}
	vr, ok := fr.X.(*spec.VarRef)
	if !ok {
		return nil
	}
	ref, ok := c.prog.res[vr.Var]
	if !ok || ref.sp != SignalSlot {
		return nil
	}
	rt, ok := vr.Var.Type.(spec.RecordType)
	if !ok {
		return nil
	}
	for i := range rt.Fields {
		if rt.Fields[i].Name != fr.Field {
			continue
		}
		if rt.Fields[i].Type.BitWidth() != vl.Value.Width() {
			return nil
		}
		return &fcond{
			kind: fCmpSigVec, sig: ref.idx, fi: int32(i),
			decl: rt.Fields, vec: vl.Value, neg: e.Op == spec.OpNeq,
		}
	}
	return nil
}

// compileIntCmp matches intvar OP intlit.
func (c *bcompiler) compileIntCmp(e *spec.Binary) *fcond {
	vr, ok := e.X.(*spec.VarRef)
	if !ok {
		return nil
	}
	if _, ok := vr.Var.Type.(spec.IntegerType); !ok {
		return nil
	}
	il, ok := e.Y.(*spec.IntLit)
	if !ok {
		return nil
	}
	ref, ok := c.prog.res[vr.Var]
	if !ok {
		return nil
	}
	return &fcond{kind: fCmpInt, ref: ref, op: e.Op, ival: il.Value}
}

// evalF evaluates a fast condition; ok=false means a runtime shape the
// compile-time typing did not predict (nil scratch local, coerced
// container, odd width) and the caller must evaluate generically. Both
// operands of and/or evaluate regardless of the first's value, as they
// do on the generic path.
func (f *Frame) evalF(c *fcond) (val, ok bool) {
	switch c.kind {
	case fAnd:
		av, ok := f.evalF(c.a)
		if !ok {
			return false, false
		}
		bv, ok := f.evalF(c.b)
		return av && bv, ok
	case fOr:
		av, ok := f.evalF(c.a)
		if !ok {
			return false, false
		}
		bv, ok := f.evalF(c.b)
		return av || bv, ok
	case fNot:
		av, ok := f.evalF(c.a)
		return !av, ok
	case fConst:
		return c.bval, true
	case fBoolVar:
		bv, ok := f.load(c.ref).(BoolVal)
		return bv.V, ok
	case fCmpSigVec:
		// recFieldsOf proves the value has the declared layout, which
		// validates the compile-time field index; any other shape
		// evaluates generically.
		flds := recFieldsOf(c.decl, f.Globals[c.sig])
		if flds == nil {
			return false, false
		}
		vv, ok := flds[c.fi].(VecVal)
		if !ok || vv.V.Width() != c.vec.Width() {
			return false, false
		}
		return vv.V.Equal(c.vec) != c.neg, true
	case fCmpInt:
		iv, ok := f.load(c.ref).(IntVal)
		if !ok {
			return false, false
		}
		switch c.op {
		case spec.OpEq:
			return iv.V == c.ival, true
		case spec.OpNeq:
			return iv.V != c.ival, true
		case spec.OpLt:
			return iv.V < c.ival, true
		case spec.OpLe:
			return iv.V <= c.ival, true
		case spec.OpGt:
			return iv.V > c.ival, true
		case spec.OpGe:
			return iv.V >= c.ival, true
		}
	}
	return false, false
}

// condBool evaluates a condition, preferring the fast form.
func (f *Frame) condBool(c *fcond, ce *cexpr) bool {
	if c != nil {
		if v, ok := f.evalF(c); ok {
			return v
		}
	}
	return asBool(f.evalC(ce))
}
