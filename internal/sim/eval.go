package sim

import (
	"repro/internal/bits"
	"repro/internal/estimate"
	"repro/internal/spec"
)

// smallVecBox caches boxed VecVals for vectors up to 64 bits wide whose
// value fits a byte. Protocol state is dominated by flags, opcodes and
// small counters; without the cache every evaluated strobe or counter
// result is a fresh interface allocation, and the model checker boxes
// millions of them per run. Vector operations are persistent, so the
// cached backing words are never mutated.
var smallVecBox [65][256]Value

func init() {
	for w := 1; w <= 64; w++ {
		max := 256
		if w < 8 {
			max = 1 << uint(w)
		}
		for v := 0; v < max; v++ {
			smallVecBox[w][v] = VecVal{V: bits.FromUint(uint64(v), w)}
		}
	}
}

// boxVec boxes a vector result, reusing a cached box when possible.
func boxVec(v bits.Vector) Value {
	if w := v.Width(); w >= 1 && w <= 64 {
		if u := v.Uint64(); u < 256 {
			return smallVecBox[w][u]
		}
	}
	return VecVal{V: v}
}

// smallIntBox and boolBox intern the scalar boxes the same way: loop
// counters, handshake word counts and comparison results dominate
// evaluated scalars, and boxing each one is an allocation on the
// kernel's hottest path.
const (
	smallIntLo = -4
	smallIntHi = 1024
)

var (
	smallIntBox [smallIntHi - smallIntLo + 1]Value
	boolBox     = [2]Value{BoolVal{V: false}, BoolVal{V: true}}
)

func init() {
	for i := range smallIntBox {
		smallIntBox[i] = IntVal{V: int64(i + smallIntLo)}
	}
}

func boxInt(v int64) Value {
	if v >= smallIntLo && v <= smallIntHi {
		return smallIntBox[v-smallIntLo]
	}
	return IntVal{V: v}
}

func boxBool(b bool) Value {
	if b {
		return boolBox[1]
	}
	return boolBox[0]
}

// applyBinary applies a binary operator to already-evaluated operands:
// the one definition of the operators' semantics, which the compiled
// evaluator's inlined fast paths (evalC) must agree with.
func (f *Frame) applyBinary(op spec.Op, x, y Value) Value {
	switch op {
	case spec.OpAnd, spec.OpOr:
		if xb, ok := x.(BoolVal); ok {
			yb := asBool(y)
			if op == spec.OpAnd {
				return boxBool(xb.V && yb)
			}
			return boxBool(xb.V || yb)
		}
	}

	// Vector operands: bitwise and modular arithmetic.
	xv, xIsVec := x.(VecVal)
	yv, yIsVec := y.(VecVal)
	if xIsVec || yIsVec {
		return f.evalVecBinary(op, x, y, xv, yv, xIsVec, yIsVec)
	}

	// Integer / boolean arithmetic.
	a, b := asInt(x), asInt(y)
	switch op {
	case spec.OpAdd:
		return boxInt(a + b)
	case spec.OpSub:
		return boxInt(a - b)
	case spec.OpMul:
		return boxInt(a * b)
	case spec.OpDiv:
		if b == 0 {
			f.fail("division by zero")
		}
		return boxInt(a / b)
	case spec.OpMod:
		if b == 0 {
			f.fail("mod by zero")
		}
		return boxInt(a % b)
	case spec.OpEq:
		return boxBool(a == b)
	case spec.OpNeq:
		return boxBool(a != b)
	case spec.OpLt:
		return boxBool(a < b)
	case spec.OpLe:
		return boxBool(a <= b)
	case spec.OpGt:
		return boxBool(a > b)
	case spec.OpGe:
		return boxBool(a >= b)
	case spec.OpShl:
		return boxInt(a << uint(b))
	case spec.OpShr:
		return boxInt(a >> uint(b))
	case spec.OpXor:
		return boxInt(a ^ b)
	}
	f.fail("unsupported integer op %s", op)
	return nil
}

func (f *Frame) evalVecBinary(op spec.Op, x, y Value, xv, yv VecVal, xIsVec, yIsVec bool) Value {
	// Align: coerce the non-vector side (or the narrower vector) to the
	// wider operand's width.
	width := 0
	if xIsVec {
		width = xv.V.Width()
	}
	if yIsVec && yv.V.Width() > width {
		width = yv.V.Width()
	}
	if op == spec.OpConcat {
		a := asVec(x, vecWidthOr(x, width))
		b := asVec(y, vecWidthOr(y, width))
		return boxVec(bits.Concat(a, b))
	}
	a := asVec(x, width)
	b := asVec(y, width)
	switch op {
	case spec.OpAdd:
		return boxVec(a.Add(b))
	case spec.OpSub:
		return boxVec(a.Sub(b))
	case spec.OpAnd:
		return boxVec(a.And(b))
	case spec.OpOr:
		return boxVec(a.Or(b))
	case spec.OpXor:
		return boxVec(a.Xor(b))
	case spec.OpEq:
		return boxBool(a.Equal(b))
	case spec.OpNeq:
		return boxBool(!a.Equal(b))
	case spec.OpLt:
		return boxBool(a.CompareUnsigned(b) < 0)
	case spec.OpLe:
		return boxBool(a.CompareUnsigned(b) <= 0)
	case spec.OpGt:
		return boxBool(a.CompareUnsigned(b) > 0)
	case spec.OpGe:
		return boxBool(a.CompareUnsigned(b) >= 0)
	case spec.OpMul, spec.OpDiv, spec.OpMod:
		if width > 64 {
			f.fail("%s on vectors wider than 64 bits", op)
		}
		av, bv := a.Uint64(), b.Uint64()
		var r uint64
		switch op {
		case spec.OpMul:
			r = av * bv
		case spec.OpDiv:
			if bv == 0 {
				f.fail("division by zero")
			}
			r = av / bv
		default:
			if bv == 0 {
				f.fail("mod by zero")
			}
			r = av % bv
		}
		return boxVec(bits.FromUint(r, width))
	case spec.OpShl, spec.OpShr:
		sh := int(asInt(y))
		if sh < 0 {
			f.fail("negative shift amount %d", sh)
		}
		if op == spec.OpShl {
			return boxVec(a.Lsh(sh))
		}
		return boxVec(a.Rsh(sh))
	}
	f.fail("unsupported vector op %s", op)
	return nil
}

func vecWidthOr(v Value, def int) int {
	if vv, ok := v.(VecVal); ok {
		return vv.V.Width()
	}
	return def
}

// Coerce adapts a value to a declared type on assignment.
func Coerce(v Value, t spec.Type) Value {
	switch t := t.(type) {
	case spec.IntegerType:
		return boxInt(asInt(v))
	case spec.BitVectorType:
		return boxVec(asVec(v, t.Width))
	case spec.BitType:
		return boxVec(asVec(v, 1))
	case spec.BoolType:
		return boxBool(asBool(v))
	}
	return v
}

// ---- lvalue stores ----

// accessor is one step of an lvalue path, outermost last.
type accessor struct {
	index  *cexpr // array index, or
	field  string // record field, or
	hi, lo *cexpr // slice bounds
	kind   int    // 0 index, 1 field, 2 slice
	// fieldIdx is a static index hint for kind 1, or -1. applyPath
	// validates it against the runtime record type before trusting it,
	// so it can only skip the name scan, never change which field a
	// store hits.
	fieldIdx int32
}

// compileLValue flattens an lvalue into its base variable and accessor
// path, compiling every index and slice bound; a nil base means lhs is
// not an lvalue. Every variable lhs references must already have been
// through scanExpr.
func (c *bcompiler) compileLValue(lhs spec.Expr) (*spec.Variable, []accessor) {
	var path []accessor
	for {
		switch l := lhs.(type) {
		case *spec.VarRef:
			// reverse path: it was collected outermost-first
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return l.Var, path
		case *spec.Index:
			c.markEscapes(l.Index)
			path = append(path, accessor{kind: 0, index: c.compileExpr(l.Index)})
			lhs = l.Arr
		case *spec.FieldRef:
			path = append(path, accessor{kind: 1, field: l.Field, fieldIdx: -1})
			lhs = l.X
		case *spec.SliceExpr:
			c.markEscapes(l.Hi)
			c.markEscapes(l.Lo)
			path = append(path, accessor{kind: 2, hi: c.compileExpr(l.Hi), lo: c.compileExpr(l.Lo)})
			lhs = l.X
		default:
			return nil, nil
		}
	}
}

// applyPath rebuilds the containers along the accessor path with the
// leaf replaced. Containers off the path are shared.
func (f *Frame) applyPath(cur Value, path []accessor, val Value) Value {
	a := path[0]
	switch a.kind {
	case 0: // index
		av, ok := cur.(ArrayVal)
		if !ok {
			f.fail("indexed store into non-array")
		}
		idx := int(asInt(f.evalC(a.index))) - av.Lo
		if idx < 0 || idx >= len(av.Elems) {
			f.fail("store index %d out of range (len %d)", idx+av.Lo, len(av.Elems))
		}
		elems := make([]Value, len(av.Elems))
		copy(elems, av.Elems)
		if len(path) == 1 {
			elems[idx] = coerceLeafLike(val, elems[idx])
		} else {
			elems[idx] = f.applyPath(elems[idx], path[1:], val)
		}
		return ArrayVal{Lo: av.Lo, Elems: elems}
	case 1: // field
		rv, ok := cur.(RecordVal)
		if !ok {
			f.fail("field store into non-record")
		}
		i := int(a.fieldIdx)
		if i < 0 || i >= len(rv.Type.Fields) || rv.Type.Fields[i].Name != a.field {
			i = rv.FieldIndex(a.field)
		}
		if i < 0 {
			f.fail("store to unknown field %s", a.field)
		}
		fields := make([]Value, len(rv.Fields))
		copy(fields, rv.Fields)
		if len(path) == 1 {
			fields[i] = Coerce(val, rv.Type.Fields[i].Type)
		} else {
			fields[i] = f.applyPath(fields[i], path[1:], val)
		}
		return RecordVal{Type: rv.Type, Fields: fields}
	case 2: // slice (always a leaf)
		vv, ok := cur.(VecVal)
		if !ok {
			f.fail("slice store into non-vector")
		}
		hi := int(asInt(f.evalC(a.hi)))
		lo := int(asInt(f.evalC(a.lo)))
		if len(path) != 1 {
			f.fail("slice must be the last lvalue step")
		}
		if lo < 0 || hi >= vv.V.Width() || hi < lo {
			f.fail("slice store (%d downto %d) out of range (width %d)", hi, lo, vv.V.Width())
		}
		return boxVec(vv.V.SetSlice(hi, lo, asVec(val, hi-lo+1)))
	}
	f.fail("bad lvalue path")
	return nil
}

// coerceLeafLike coerces val to the shape of the existing element.
func coerceLeafLike(val Value, like Value) Value {
	switch like := like.(type) {
	case VecVal:
		return boxVec(asVec(val, like.V.Width()))
	case IntVal:
		return boxInt(asInt(val))
	case BoolVal:
		return boxBool(asBool(val))
	}
	return val
}

// InitialValue evaluates a variable's declared initializer, or its zero
// value. Initializers must be constant.
func InitialValue(v *spec.Variable) Value {
	zero := ZeroValue(v.Type)
	if v.Init != nil {
		if c, ok := estimate.ConstInt(v.Init); ok {
			return Coerce(IntVal{V: c}, v.Type)
		}
		if vl, ok := v.Init.(*spec.VecLit); ok {
			return Coerce(VecVal{V: vl.Value}, v.Type)
		}
	}
	if len(v.InitArray) > 0 {
		av, ok := zero.(ArrayVal)
		if !ok {
			return zero
		}
		for i := range av.Elems {
			if i < len(v.InitArray) {
				av.Elems[i] = coerceLeafLike(VecVal{V: v.InitArray[i]}, av.Elems[i])
			}
		}
		return av
	}
	return zero
}
