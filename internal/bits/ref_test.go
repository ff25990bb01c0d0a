package bits

import (
	"fmt"
	"math/rand"
	"testing"
)

// boolVec is the bit-at-a-time reference model of a vector: element i
// is bit i. The word-level kernels must agree with it at every width,
// in particular across the 64- and 128-bit word boundaries.
type boolVec []bool

func toBools(x Vector) boolVec {
	b := make(boolVec, x.Width())
	for i := range b {
		b[i] = x.Bit(i)
	}
	return b
}

// fromBools builds a vector bit by bit, without the kernels under test.
func fromBools(b boolVec) Vector {
	x := New(len(b))
	for i, v := range b {
		if v {
			x.words[i/wordBits] |= 1 << (i % wordBits)
		}
	}
	return x
}

func refConcat(hi, lo boolVec) boolVec {
	return append(append(boolVec{}, lo...), hi...)
}

func refZip(x, y boolVec, f func(a, b bool) bool) boolVec {
	z := make(boolVec, len(x))
	for i := range z {
		z[i] = f(x[i], y[i])
	}
	return z
}

func refNot(x boolVec) boolVec {
	z := make(boolVec, len(x))
	for i := range z {
		z[i] = !x[i]
	}
	return z
}

// refAdd is a ripple-carry adder; sub adds the complement of y plus one.
func refAdd(x, y boolVec, sub bool) boolVec {
	z := make(boolVec, len(x))
	carry := sub
	for i := range z {
		a, b := x[i], y[i] != sub
		z[i] = a != b != carry
		carry = a && b || carry && (a != b)
	}
	return z
}

func refResize(x boolVec, w int) boolVec {
	z := make(boolVec, w)
	copy(z, x)
	return z
}

func refLsh(x boolVec, n int) boolVec {
	z := make(boolVec, len(x))
	for i := n; i < len(x); i++ {
		z[i] = x[i-n]
	}
	return z
}

func refRsh(x boolVec, n int) boolVec {
	z := make(boolVec, len(x))
	for i := 0; i+n < len(x); i++ {
		z[i] = x[i+n]
	}
	return z
}

func refSetSlice(x boolVec, lo int, v boolVec) boolVec {
	z := append(boolVec{}, x...)
	copy(z[lo:], v)
	return z
}

// checkRep checks the representation invariant every result must keep:
// ceil(width/64) words and no bit set above the width. Equal compares
// words, so a stray high bit would make equal values unequal.
func checkRep(t *testing.T, op string, x Vector) {
	t.Helper()
	if len(x.words) != wordCount(x.width) {
		t.Fatalf("%s: width %d with %d words", op, x.width, len(x.words))
	}
	if r := x.width % wordBits; r != 0 && x.words[len(x.words)-1]>>uint(r) != 0 {
		t.Fatalf("%s: width %d has bits set above the width", op, x.width)
	}
}

// checkOps compares every word-level operation with the reference model
// on x and y (equal widths) and z (any width). n picks the shift
// amount, the resize width, the slice and the bit.
func checkOps(t *testing.T, x, y, z Vector, n int) {
	t.Helper()
	xb, yb, zb := toBools(x), toBools(y), toBools(z)
	w := len(xb)
	check := func(op string, got Vector, want boolVec) {
		t.Helper()
		checkRep(t, op, got)
		if !got.Equal(fromBools(want)) {
			t.Fatalf("%s on x=%s y=%s z=%s (n=%d):\n got  %s\n want %s", op, x, y, z, n, got, fromBools(want))
		}
	}
	check("Concat(x, z)", Concat(x, z), refConcat(xb, zb))
	check("Concat(z, x)", Concat(z, x), refConcat(zb, xb))
	check("And", x.And(y), refZip(xb, yb, func(a, b bool) bool { return a && b }))
	check("Or", x.Or(y), refZip(xb, yb, func(a, b bool) bool { return a || b }))
	check("Xor", x.Xor(y), refZip(xb, yb, func(a, b bool) bool { return a != b }))
	check("Not", x.Not(), refNot(xb))
	check("Add", x.Add(y), refAdd(xb, yb, false))
	check("Sub", x.Sub(y), refAdd(xb, yb, true))
	rw := n % 131
	check(fmt.Sprintf("Resize(%d)", rw), x.Resize(rw), refResize(xb, rw))
	sh := n % (w + wordBits + 1)
	check(fmt.Sprintf("Lsh(%d)", sh), x.Lsh(sh), refLsh(xb, sh))
	check(fmt.Sprintf("Rsh(%d)", sh), x.Rsh(sh), refRsh(xb, sh))
	far := n + 1<<40
	check(fmt.Sprintf("Lsh(%d)", far), x.Lsh(far), make(boolVec, w))
	check(fmt.Sprintf("Rsh(%d)", far), x.Rsh(far), make(boolVec, w))
	if w > 0 {
		lo := n % w
		hi := lo + n/7%(w-lo)
		check(fmt.Sprintf("Slice(%d, %d)", hi, lo), x.Slice(hi, lo), xb[lo:hi+1])
		v := y.Slice(hi-lo, 0)
		check(fmt.Sprintf("SetSlice(%d, %d)", hi, lo), x.SetSlice(hi, lo, v), refSetSlice(xb, lo, yb[:hi-lo+1]))
		bit, set := n/3%w, n%2 == 0
		want := append(boolVec{}, xb...)
		want[bit] = set
		check(fmt.Sprintf("SetBit(%d, %t)", bit, set), x.SetBit(bit, set), want)
	}
	// No operation may write through to an operand: operands can be
	// interned instances shared by every caller.
	for _, o := range []struct {
		name string
		v    Vector
		b    boolVec
	}{{"x", x, xb}, {"y", y, yb}, {"z", z, zb}} {
		if !o.v.Equal(fromBools(o.b)) {
			t.Fatalf("operand %s mutated: %s, was %s", o.name, o.v, fromBools(o.b))
		}
	}
}

// randVec returns a vector of width w: all zeros, all ones, one set
// bit, or uniform random bits, so carries and masks see their edges.
func randVec(r *rand.Rand, w int) Vector {
	b := make(boolVec, w)
	switch kind := r.Intn(4); {
	case kind == 1:
		for i := range b {
			b[i] = true
		}
	case kind == 2 && w > 0:
		b[r.Intn(w)] = true
	case kind == 3:
		for i := range b {
			b[i] = r.Intn(2) == 1
		}
	}
	return fromBools(b)
}

// TestOpsMatchReference checks the word-level kernels against the
// bit-at-a-time model at widths 0-130 on seeded random values.
func TestOpsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for w := 0; w <= 130; w++ {
		for trial := 0; trial < 40; trial++ {
			checkOps(t, randVec(r, w), randVec(r, w), randVec(r, r.Intn(131)), r.Intn(1<<16))
		}
	}
}

// bytesVec builds a vector of width w from fuzz bytes, cycling them.
func bytesVec(b []byte, w int) Vector {
	bv := make(boolVec, w)
	if len(b) > 0 {
		for i := range bv {
			bv[i] = b[i/8%len(b)]>>(i%8)&1 == 1
		}
	}
	return fromBools(bv)
}

// FuzzOps runs checkOps on fuzzed bits at widths 0-130. The seeds sit
// at the word boundaries.
func FuzzOps(f *testing.F) {
	ones := []byte{0xff}
	alt := []byte{0xa5, 0x3c, 0x0f, 0x80}
	for _, w := range []uint8{0, 1, 16, 17, 63, 64, 65, 127, 128, 129, 130} {
		f.Add(ones, alt, ones, w, w+1, uint16(w)*97+1)
		f.Add(alt, ones, []byte{}, w, 64-w%64, uint16(64))
	}
	f.Fuzz(func(t *testing.T, xs, ys, zs []byte, w, wz uint8, n uint16) {
		width, zw := int(w)%131, int(wz)%131
		checkOps(t, bytesVec(xs, width), bytesVec(ys, width), bytesVec(zs, zw), int(n))
	})
}
