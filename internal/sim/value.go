// Package sim implements a discrete-event simulator for specification IR
// systems (internal/spec): behaviors run as concurrent processes over
// shared variables and signals with VHDL-style delta-cycle semantics.
// Protocol generation's output — bus records, handshake procedures,
// variable processes — executes directly on this simulator, which is how
// the reproduction *demonstrates* the paper's claim that the refined
// specification is simulatable and functionally equivalent to the
// original.
//
// Semantics notes (divergences from strict VHDL are deliberate and safe
// for the generated protocols):
//
//   - "wait until cond" checks the condition immediately: if it already
//     holds the process continues without suspending. Strict VHDL
//     suspends until the next event; the immediate check makes
//     level-sensitive handshakes robust against request strobes that were
//     already asserted when the waiter arrived (see internal/protogen).
//   - Signal assignments take effect at the next delta cycle; an event is
//     generated only if the value changes. Several assignments to the
//     same signal within one delta are applied in process run order, last
//     write winning (the flow guarantees a single driver per wire at any
//     time, so this models resolution without a resolution function).
//   - Assignment semantics follow the *target*: assigning to a signal is
//     always delta-delayed, assigning to a variable always immediate,
//     regardless of which of ":="/"<=" the source used. The paper's
//     examples use "<=" on plain variables; this rule makes both
//     readings behave identically.
package sim

import (
	"fmt"
	"strings"

	"repro/internal/bits"
	"repro/internal/spec"
)

// Value is a runtime value: integer, boolean, bit vector, array or
// record.
type Value interface {
	// Equal reports deep equality with another value.
	Equal(Value) bool
	// Copy returns an independent deep copy.
	Copy() Value
	String() string
}

// IntVal is an integer value.
type IntVal struct{ V int64 }

// BoolVal is a boolean value.
type BoolVal struct{ V bool }

// VecVal is a bit or bit-vector value.
type VecVal struct{ V bits.Vector }

// ArrayVal is an array value with element storage.
type ArrayVal struct {
	Lo    int
	Elems []Value
}

// RecordVal is a record value; field order follows the record type.
type RecordVal struct {
	Type   spec.RecordType
	Fields []Value
}

func (v IntVal) Equal(o Value) bool {
	w, ok := o.(IntVal)
	return ok && w.V == v.V
}
func (v IntVal) Copy() Value    { return v }
func (v IntVal) String() string { return fmt.Sprintf("%d", v.V) }

func (v BoolVal) Equal(o Value) bool {
	w, ok := o.(BoolVal)
	return ok && w.V == v.V
}
func (v BoolVal) Copy() Value    { return v }
func (v BoolVal) String() string { return fmt.Sprintf("%t", v.V) }

func (v VecVal) Equal(o Value) bool {
	w, ok := o.(VecVal)
	return ok && w.V.Equal(v.V)
}
func (v VecVal) Copy() Value    { return VecVal{V: v.V.Clone()} }
func (v VecVal) String() string { return `"` + v.V.String() + `"` }

func (v ArrayVal) Equal(o Value) bool {
	w, ok := o.(ArrayVal)
	if !ok || len(w.Elems) != len(v.Elems) || w.Lo != v.Lo {
		return false
	}
	for i := range v.Elems {
		if !v.Elems[i].Equal(w.Elems[i]) {
			return false
		}
	}
	return true
}

func (v ArrayVal) Copy() Value {
	elems := make([]Value, len(v.Elems))
	for i, e := range v.Elems {
		elems[i] = e.Copy()
	}
	return ArrayVal{Lo: v.Lo, Elems: elems}
}

func (v ArrayVal) String() string {
	var b strings.Builder
	b.WriteString("(")
	for i, e := range v.Elems {
		if i > 0 {
			b.WriteString(", ")
		}
		if i > 8 {
			fmt.Fprintf(&b, "... %d elems", len(v.Elems))
			break
		}
		b.WriteString(e.String())
	}
	b.WriteString(")")
	return b.String()
}

func (v RecordVal) Equal(o Value) bool {
	w, ok := o.(RecordVal)
	if !ok || len(w.Fields) != len(v.Fields) {
		return false
	}
	for i := range v.Fields {
		if !v.Fields[i].Equal(w.Fields[i]) {
			return false
		}
	}
	return true
}

func (v RecordVal) Copy() Value {
	fields := make([]Value, len(v.Fields))
	for i, f := range v.Fields {
		fields[i] = f.Copy()
	}
	return RecordVal{Type: v.Type, Fields: fields}
}

func (v RecordVal) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, f := range v.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", v.Type.Fields[i].Name, f)
	}
	b.WriteString("}")
	return b.String()
}

// FieldIndex returns the index of the named field, or -1.
func (v RecordVal) FieldIndex(name string) int {
	for i, f := range v.Type.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// ZeroValue returns the zero value for a specification type: 0, false,
// all-zero vectors, zero-filled arrays and records.
func ZeroValue(t spec.Type) Value {
	switch t := t.(type) {
	case spec.BitType:
		return VecVal{V: bits.New(1)}
	case spec.BoolType:
		return BoolVal{}
	case spec.IntegerType:
		return IntVal{}
	case spec.BitVectorType:
		return VecVal{V: bits.New(t.Width)}
	case spec.ArrayType:
		elems := make([]Value, t.Length)
		for i := range elems {
			elems[i] = ZeroValue(t.Elem)
		}
		return ArrayVal{Lo: t.Lo, Elems: elems}
	case spec.RecordType:
		fields := make([]Value, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = ZeroValue(f.Type)
		}
		return RecordVal{Type: t, Fields: fields}
	}
	panic(fmt.Sprintf("sim: no zero value for type %v", t))
}

// asVec coerces a value to a bit vector of the given width (integers are
// two's-complement encoded; vectors are resized).
func asVec(v Value, width int) bits.Vector {
	switch v := v.(type) {
	case VecVal:
		if v.V.Width() == width {
			return v.V
		}
		return v.V.Resize(width)
	case IntVal:
		return bits.FromInt(v.V, width)
	case BoolVal:
		var b uint64
		if v.V {
			b = 1
		}
		return bits.FromUint(b, width)
	}
	panic(fmt.Sprintf("sim: cannot coerce %s to bit_vector(%d)", v, width))
}

// asInt coerces a value to an integer; vectors are interpreted unsigned
// (matching conv_integer on addresses).
func asInt(v Value) int64 {
	switch v := v.(type) {
	case IntVal:
		return v.V
	case VecVal:
		return int64(v.V.Uint64())
	case BoolVal:
		if v.V {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("sim: cannot coerce %s to integer", v))
}

// asBool coerces a value to boolean; a 1-bit vector is true when its bit
// is set.
func asBool(v Value) bool {
	switch v := v.(type) {
	case BoolVal:
		return v.V
	case VecVal:
		return !v.V.IsZero()
	case IntVal:
		return v.V != 0
	}
	panic(fmt.Sprintf("sim: cannot coerce %s to boolean", v))
}
