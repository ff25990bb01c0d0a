package sim

import (
	"bytes"
	"testing"

	"repro/internal/bits"
	"repro/internal/spec"
)

func vec(width int, val uint64) VecVal {
	return VecVal{V: bits.FromUint(val, width)}
}

// TestAppendBinaryMatchesEqual pins the codec contract: for values of
// one specification type, AppendBinary renderings are equal exactly
// when the values are Equal — array elements past index 8, which
// String summarizes as "... N elems", included.
func TestAppendBinaryMatchesEqual(t *testing.T) {
	bigArr := func(tweak int, delta uint64) ArrayVal {
		elems := make([]Value, 12)
		for i := range elems {
			elems[i] = vec(8, uint64(i))
		}
		if tweak >= 0 {
			elems[tweak] = vec(8, uint64(tweak)+delta)
		}
		return ArrayVal{Elems: elems}
	}
	recT := spec.RecordType{Name: "R", Fields: []spec.Field{
		{Name: "A", Type: spec.BitVector(4)}, {Name: "B", Type: spec.Bool},
	}}
	rec := func(a uint64, b bool) RecordVal {
		return RecordVal{Type: recT, Fields: []Value{vec(4, a), BoolVal{V: b}}}
	}
	// Groups of same-type values; every pair within a group must agree
	// between Equal and binary equality.
	groups := [][]Value{
		{IntVal{V: 0}, IntVal{V: 1}, IntVal{V: -1}, IntVal{V: 1}},
		{BoolVal{V: true}, BoolVal{V: false}, BoolVal{V: true}},
		{vec(16, 0), vec(16, 1), vec(16, 0xffff), vec(16, 1)},
		{bigArr(-1, 0), bigArr(3, 7), bigArr(8, 7), bigArr(9, 7), bigArr(11, 7),
			bigArr(11, 200), bigArr(-1, 0), bigArr(9, 7)},
		{rec(1, true), rec(1, false), rec(2, true), rec(1, true)},
	}
	for gi, g := range groups {
		for _, a := range g {
			enc := AppendBinary(nil, a)
			for _, b := range g {
				if eq, bEq := a.Equal(b), bytes.Equal(enc, AppendBinary(nil, b)); eq != bEq {
					t.Errorf("group %d (%s vs %s): Equal=%v, binary equal=%v", gi, a, b, eq, bEq)
				}
			}
		}
	}
	// The tail, spelled out: length 12 arrays differing only at index 10
	// render identically as strings but not as bytes.
	if got, want := bigArr(10, 7).String(), bigArr(-1, 0).String(); got != want {
		t.Fatalf("String renders array tails: %q vs %q", got, want)
	}
	if bytes.Equal(AppendBinary(nil, bigArr(10, 7)), AppendBinary(nil, bigArr(-1, 0))) {
		t.Fatal("binary codec merges arrays that differ past index 8")
	}
	// The element count separates arrays of different lengths whose
	// elements agree as far as the shorter goes.
	short := ArrayVal{Elems: bigArr(-1, 0).Elems[:10]}
	if bytes.Equal(AppendBinary(nil, short), AppendBinary(nil, bigArr(-1, 0))) {
		t.Fatal("binary codec conflates arrays of different lengths")
	}
}

// TestAppendBinaryAppends ensures dst is extended in place, not
// replaced — callers accumulate many values into one arena.
func TestAppendBinaryAppends(t *testing.T) {
	dst := AppendBinary(nil, IntVal{V: 7})
	n := len(dst)
	dst = AppendBinary(dst, BoolVal{V: true})
	if !bytes.Equal(dst[:n], AppendBinary(nil, IntVal{V: 7})) {
		t.Fatal("second append clobbered earlier bytes")
	}
	if !bytes.Equal(dst[n:], AppendBinary(nil, BoolVal{V: true})) {
		t.Fatal("appended encoding differs from standalone encoding")
	}
}

// TestVectorAppendBytes pins the bits-level primitive: equal-width
// vectors append equal bytes iff Equal, and the byte count is exactly
// ceil(width/8) — state keys are hashed and compared millions of
// times, so the codec must not pad to whole words.
func TestVectorAppendBytes(t *testing.T) {
	a := bits.FromUint(0x0123456789abcdef, 100)
	b := bits.FromUint(0x0123456789abcdee, 100)
	ab, bb := a.AppendBytes(nil), b.AppendBytes(nil)
	if len(ab) != 13 {
		t.Fatalf("width 100 appended %d bytes, want 13", len(ab))
	}
	if bytes.Equal(ab, bb) {
		t.Fatal("distinct vectors appended equal bytes")
	}
	if !bytes.Equal(ab, bits.FromUint(0x0123456789abcdef, 100).AppendBytes(nil)) {
		t.Fatal("equal vectors appended distinct bytes")
	}
}
