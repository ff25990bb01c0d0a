// Package spec defines the specification-level intermediate representation
// used throughout the interface-synthesis flow: a system is a set of
// modules, each holding behaviors (concurrent processes) and variables
// (scalars, arrays, memories); behaviors execute sequential statements over
// typed expressions. Inter-module variable accesses are abstracted as
// channels, and channel groups are implemented as buses.
//
// This is the in-memory form of the SpecSyn-style specification of
// Narayan & Gajski (DAC'94): the input to system partitioning, bus
// generation and protocol generation, and the output ("refined
// specification") of protocol generation, which internal/sim can execute.
//
// Expression and statement nodes are immutable once built: no pass
// changes a node after building it. RewriteStmts builds new compound
// statements instead of editing the old ones, and Clone copies. So one
// node may sit at several positions of a system, and a refinement
// shares the nodes it repeats: protocol generation builds each bus-line
// read, literal, handshake condition and leaf statement such as
// "B.START <= '1'" once per call and places it in every word of every
// channel that uses it. Code reading a system must therefore not key a
// map on an expression or statement node, nor compare two by identity;
// the declarations (*Variable, *Behavior, *Channel, *Procedure,
// *Module) are the identities. Clone gives each position of a shared
// node its own copy.
package spec

import (
	"fmt"
	"strings"
)

// Type is the interface implemented by all specification types.
type Type interface {
	// BitWidth reports the number of bits a value of this type occupies
	// when transferred over a channel (the "message size" of the paper).
	BitWidth() int
	// String renders the type in VHDL-like syntax.
	String() string
	// Equal reports structural type equality.
	Equal(Type) bool
}

// BitType is the VHDL 'bit' type: a single wire.
type BitType struct{}

// BoolType is the boolean type used by conditions.
type BoolType struct{}

// IntegerType is a signed integer of the given width (VHDL 'integer' is 32
// bits).
type IntegerType struct {
	Width int
}

// BitVectorType is bit_vector(Width-1 downto 0).
type BitVectorType struct {
	Width int
}

// ArrayType is array(Lo to Lo+Length-1) of Elem. Arrays model memories; an
// access to a remote array carries an address of AddrBits() bits alongside
// the data, exactly as in the paper's FLC channels (16-bit data + 7-bit
// address for a 128-entry array).
type ArrayType struct {
	Length int
	Lo     int
	Elem   Type
}

// Field is one component of a RecordType.
type Field struct {
	Name string
	Type Type
}

// RecordType is a VHDL record; protocol generation declares the bus as a
// record of control, ID and data lines (e.g. type HandShakeBus).
type RecordType struct {
	Name   string
	Fields []Field
}

// Bit is the canonical BitType instance.
var Bit = BitType{}

// Bool is the canonical BoolType instance.
var Bool = BoolType{}

// Integer is the canonical 32-bit IntegerType instance.
var Integer = IntegerType{Width: 32}

// MaxVectorWidth bounds the width of a bit_vector a specification
// declares, and so the width of a bus's DATA lines. A wider value would
// let a short untrusted request choose how much memory every value and
// every generated word takes.
const MaxVectorWidth = 4096

// BitVector returns a BitVectorType of the given width.
func BitVector(width int) BitVectorType { return BitVectorType{Width: width} }

// Array returns array(0 to length-1) of elem.
func Array(length int, elem Type) ArrayType { return ArrayType{Length: length, Elem: elem} }

func (BitType) BitWidth() int  { return 1 }
func (BitType) String() string { return "bit" }
func (BitType) Equal(o Type) bool {
	_, ok := o.(BitType)
	return ok
}

func (BoolType) BitWidth() int  { return 1 }
func (BoolType) String() string { return "boolean" }
func (BoolType) Equal(o Type) bool {
	_, ok := o.(BoolType)
	return ok
}

func (t IntegerType) BitWidth() int { return t.Width }
func (t IntegerType) String() string {
	if t.Width == 32 {
		return "integer"
	}
	return fmt.Sprintf("integer<%d>", t.Width)
}
func (t IntegerType) Equal(o Type) bool {
	v, ok := o.(IntegerType)
	return ok && v.Width == t.Width
}

func (t BitVectorType) BitWidth() int { return t.Width }
func (t BitVectorType) String() string {
	return fmt.Sprintf("bit_vector(%d downto 0)", t.Width-1)
}
func (t BitVectorType) Equal(o Type) bool {
	v, ok := o.(BitVectorType)
	return ok && v.Width == t.Width
}

func (t ArrayType) BitWidth() int { return t.Length * t.Elem.BitWidth() }
func (t ArrayType) String() string {
	return fmt.Sprintf("array(%d to %d) of %s", t.Lo, t.Lo+t.Length-1, t.Elem)
}
func (t ArrayType) Equal(o Type) bool {
	v, ok := o.(ArrayType)
	return ok && v.Length == t.Length && v.Lo == t.Lo && v.Elem.Equal(t.Elem)
}

// AddrBits reports the number of address bits needed to index the array:
// ceil(log2(Length)), at least 1.
func (t ArrayType) AddrBits() int {
	return AddrBits(t.Length)
}

// AddrBits reports ceil(log2(n)) clamped to at least 1: the number of ID
// or address lines needed to distinguish n items.
func AddrBits(n int) int {
	if n <= 1 {
		return 1
	}
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

func (t RecordType) BitWidth() int {
	sum := 0
	for _, f := range t.Fields {
		sum += f.Type.BitWidth()
	}
	return sum
}

func (t RecordType) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "record %s {", t.Name)
	for i, f := range t.Fields {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %s", f.Name, f.Type)
	}
	b.WriteString("}")
	return b.String()
}

func (t RecordType) Equal(o Type) bool {
	v, ok := o.(RecordType)
	if !ok || len(v.Fields) != len(t.Fields) {
		return false
	}
	for i, f := range t.Fields {
		if v.Fields[i].Name != f.Name || !v.Fields[i].Type.Equal(f.Type) {
			return false
		}
	}
	return true
}

// FieldType returns the type of the named field, or nil if absent.
func (t RecordType) FieldType(name string) Type {
	for _, f := range t.Fields {
		if f.Name == name {
			return f.Type
		}
	}
	return nil
}

// IsArray reports whether t is an array type and returns it.
func IsArray(t Type) (ArrayType, bool) {
	a, ok := t.(ArrayType)
	return a, ok
}
