package bits

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZero(t *testing.T) {
	for _, w := range []int{0, 1, 7, 8, 63, 64, 65, 128, 1919} {
		x := New(w)
		if x.Width() != w {
			t.Fatalf("New(%d).Width() = %d", w, x.Width())
		}
		if !x.IsZero() {
			t.Fatalf("New(%d) not zero: %s", w, x)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestFromUintRoundTrip(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
		want  uint64
	}{
		{0, 8, 0},
		{255, 8, 255},
		{256, 8, 0},
		{0x1234, 16, 0x1234},
		{0xFFFF_FFFF_FFFF_FFFF, 64, 0xFFFF_FFFF_FFFF_FFFF},
		{0xFFFF_FFFF_FFFF_FFFF, 63, 0x7FFF_FFFF_FFFF_FFFF},
		{7, 3, 7},
		{8, 3, 0},
	}
	for _, c := range cases {
		if got := FromUint(c.v, c.width).Uint64(); got != c.want {
			t.Errorf("FromUint(%#x,%d).Uint64() = %#x, want %#x", c.v, c.width, got, c.want)
		}
	}
}

func TestFromIntTwosComplement(t *testing.T) {
	cases := []struct {
		v     int64
		width int
		want  int64
	}{
		{0, 8, 0},
		{1, 8, 1},
		{-1, 8, -1},
		{127, 8, 127},
		{-128, 8, -128},
		{128, 8, -128}, // wraps
		{-1, 16, -1},
		{-1, 64, -1},
		{1 << 40, 64, 1 << 40},
		{-5, 100, -5},
	}
	for _, c := range cases {
		x := FromInt(c.v, c.width)
		if got := x.Int64(); got != c.want {
			t.Errorf("FromInt(%d,%d).Int64() = %d, want %d (bits %s)", c.v, c.width, got, c.want, x)
		}
	}
}

func TestFromIntWideNegativeHighBits(t *testing.T) {
	x := FromInt(-1, 130)
	for i := 0; i < 130; i++ {
		if !x.Bit(i) {
			t.Fatalf("FromInt(-1,130) bit %d is 0", i)
		}
	}
	y := FromInt(5, 130)
	for i := 3; i < 130; i++ {
		if y.Bit(i) {
			t.Fatalf("FromInt(5,130) bit %d is 1", i)
		}
	}
}

func TestParse(t *testing.T) {
	x, err := Parse("1010_0011")
	if err != nil {
		t.Fatal(err)
	}
	if x.Width() != 8 || x.Uint64() != 0xA3 {
		t.Fatalf("Parse: width=%d value=%#x", x.Width(), x.Uint64())
	}
	if _, err := Parse("10x"); err == nil {
		t.Fatal("Parse accepted invalid character")
	}
	empty, err := Parse("")
	if err != nil || empty.Width() != 0 {
		t.Fatalf("Parse empty: %v width=%d", err, empty.Width())
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "0", "1", "1010", "11111111", "100000000000000000000000000000000000000000000000000000000000000001"} {
		x := MustParse(s)
		if x.String() != s {
			t.Errorf("String round trip: %q -> %q", s, x.String())
		}
	}
}

func TestHex(t *testing.T) {
	if got := FromUint(0x0A, 8).Hex(); got != `X"0A"` {
		t.Errorf("Hex = %s", got)
	}
	if got := FromUint(0x1F, 5).Hex(); got != `X"1F"` {
		t.Errorf("Hex(5-bit) = %s", got)
	}
}

func TestBitAndSetBit(t *testing.T) {
	x := New(70)
	x = x.SetBit(0, true).SetBit(69, true)
	if !x.Bit(0) || !x.Bit(69) || x.Bit(35) {
		t.Fatalf("SetBit/Bit wrong: %s", x)
	}
	y := x.SetBit(69, false)
	if y.Bit(69) {
		t.Fatal("SetBit clear failed")
	}
	if !x.Bit(69) {
		t.Fatal("SetBit mutated receiver")
	}
}

func TestSliceBasic(t *testing.T) {
	x := MustParse("11010110")
	s := x.Slice(5, 2) // bits 5..2 = 0101
	if s.String() != "0101" {
		t.Fatalf("Slice(5,2) = %s", s.String())
	}
	whole := x.Slice(7, 0)
	if !whole.Equal(x) {
		t.Fatal("Slice(7,0) != x")
	}
}

func TestSetSlice(t *testing.T) {
	x := New(8)
	x = x.SetSlice(7, 4, MustParse("1011"))
	if x.String() != "10110000" {
		t.Fatalf("SetSlice = %s", x.String())
	}
	// receiver unchanged by further SetSlice on copy
	y := x.SetSlice(3, 0, MustParse("1111"))
	if x.String() != "10110000" || y.String() != "10111111" {
		t.Fatalf("SetSlice aliasing: x=%s y=%s", x, y)
	}
}

func TestSetSliceWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(8).SetSlice(3, 0, New(5))
}

func TestConcat(t *testing.T) {
	hi := MustParse("101")
	lo := MustParse("0011")
	z := Concat(hi, lo)
	if z.Width() != 7 || z.String() != "1010011" {
		t.Fatalf("Concat = %s (width %d)", z, z.Width())
	}
}

func TestResize(t *testing.T) {
	x := MustParse("1111")
	if got := x.Resize(6).String(); got != "001111" {
		t.Errorf("extend: %s", got)
	}
	if got := x.Resize(2).String(); got != "11" {
		t.Errorf("truncate: %s", got)
	}
	if got := x.Resize(4); !got.Equal(x) {
		t.Errorf("same width: %s", got)
	}
}

func TestAddSub(t *testing.T) {
	a := FromUint(200, 8)
	b := FromUint(100, 8)
	if got := a.Add(b).Uint64(); got != 44 { // 300 mod 256
		t.Errorf("Add wrap = %d", got)
	}
	if got := b.Sub(a).Int64(); got != -100 {
		t.Errorf("Sub = %d", got)
	}
	// multiword carry propagation
	x := FromUint(0xFFFF_FFFF_FFFF_FFFF, 128)
	one := FromUint(1, 128)
	s := x.Add(one)
	if !s.Bit(64) {
		t.Error("carry did not propagate into word 1")
	}
	for i := 0; i < 64; i++ {
		if s.Bit(i) {
			t.Fatalf("low bit %d set after carry", i)
		}
	}
}

func TestLogic(t *testing.T) {
	a := MustParse("1100")
	b := MustParse("1010")
	if got := a.And(b).String(); got != "1000" {
		t.Errorf("And = %s", got)
	}
	if got := a.Or(b).String(); got != "1110" {
		t.Errorf("Or = %s", got)
	}
	if got := a.Xor(b).String(); got != "0110" {
		t.Errorf("Xor = %s", got)
	}
	if got := a.Not().String(); got != "0011" {
		t.Errorf("Not = %s", got)
	}
}

func TestCompareUnsigned(t *testing.T) {
	a := FromUint(5, 8)
	b := FromUint(6, 16)
	if a.CompareUnsigned(b) != -1 || b.CompareUnsigned(a) != 1 || a.CompareUnsigned(FromUint(5, 32)) != 0 {
		t.Fatal("CompareUnsigned wrong ordering")
	}
}

func TestWordsJoinExact(t *testing.T) {
	// 23-bit message over an 8-bit bus: 3 words, as in the paper's
	// 16-bit X transferred over an 8-bit bus in two transfers.
	msg := FromUint(0x5ABCDE, 23)
	words := msg.Words(8)
	if len(words) != 3 {
		t.Fatalf("Words: %d words", len(words))
	}
	for _, w := range words {
		if w.Width() != 8 {
			t.Fatalf("word width %d", w.Width())
		}
	}
	back := Join(words, 23)
	if !back.Equal(msg) {
		t.Fatalf("Join(Words) = %s, want %s", back, msg)
	}
}

func TestWordsCountMatchesCeil(t *testing.T) {
	for width := 1; width <= 64; width++ {
		for w := 1; w <= 32; w++ {
			msg := New(width)
			want := (width + w - 1) / w
			if got := len(msg.Words(w)); got != want {
				t.Fatalf("Words(%d) of %d-bit msg: %d words, want %d", w, width, got, want)
			}
		}
	}
}

// Property: splitting any message into bus words and rejoining is the
// identity. This is the invariant that makes generated SendCH/ReceiveCH
// procedure pairs correct for every bus width.
func TestQuickWordsJoinIdentity(t *testing.T) {
	f := func(v uint64, widthSeed, busSeed uint8) bool {
		width := int(widthSeed)%96 + 1 // 1..96
		bus := int(busSeed)%24 + 1     // 1..24
		msg := FromUint(v, width)
		if width > 64 {
			// scatter some high bits too
			msg = msg.SetBit(width-1, v&1 != 0)
		}
		return Join(msg.Words(bus), width).Equal(msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is commutative and Sub inverts Add at any width.
func TestQuickAddSubProperties(t *testing.T) {
	f := func(a, b uint64, widthSeed uint8) bool {
		w := int(widthSeed)%128 + 1
		x := FromUint(a, w)
		y := FromUint(b, w)
		if !x.Add(y).Equal(y.Add(x)) {
			return false
		}
		return x.Add(y).Sub(y).Equal(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan on random vectors.
func TestQuickDeMorgan(t *testing.T) {
	f := func(a, b uint64, widthSeed uint8) bool {
		w := int(widthSeed)%64 + 1
		x := FromUint(a, w)
		y := FromUint(b, w)
		return x.And(y).Not().Equal(x.Not().Or(y.Not()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Slice then SetSlice back is the identity.
func TestQuickSliceSetSliceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		w := rng.Intn(100) + 1
		x := New(w)
		for j := 0; j < w; j++ {
			if rng.Intn(2) == 1 {
				x = x.SetBit(j, true)
			}
		}
		lo := rng.Intn(w)
		hi := lo + rng.Intn(w-lo)
		if got := x.SetSlice(hi, lo, x.Slice(hi, lo)); !got.Equal(x) {
			t.Fatalf("SetSlice(Slice) != id at w=%d hi=%d lo=%d", w, hi, lo)
		}
	}
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		w := rng.Intn(90) + 1
		x := New(w)
		for j := 0; j < w; j++ {
			if rng.Intn(2) == 1 {
				x = x.SetBit(j, true)
			}
		}
		y := MustParse(x.String())
		if !y.Equal(x) {
			t.Fatalf("round trip failed for %s", x)
		}
	}
}

func TestInt64SignEdge(t *testing.T) {
	x := FromUint(1, 1) // single bit set: value -1 signed
	if x.Int64() != -1 {
		t.Errorf("1-bit signed = %d", x.Int64())
	}
	y := FromUint(0x8000, 16)
	if y.Int64() != -32768 {
		t.Errorf("16-bit sign = %d", y.Int64())
	}
}

func BenchmarkWordsJoin23Over8(b *testing.B) {
	msg := FromUint(0x5ABCDE, 23)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Join(msg.Words(8), 23)
	}
}

func TestShifts(t *testing.T) {
	x := MustParse("00110101")
	if got := x.Lsh(2).String(); got != "11010100" {
		t.Errorf("Lsh = %s", got)
	}
	if got := x.Rsh(3).String(); got != "00000110" {
		t.Errorf("Rsh = %s", got)
	}
	if got := x.Lsh(0); !got.Equal(x) {
		t.Error("Lsh(0) != id")
	}
	if got := x.Rsh(100); !got.IsZero() {
		t.Error("over-shift not zero")
	}
	// across word boundaries
	wide := New(100).SetBit(0, true)
	if !wide.Lsh(99).Bit(99) {
		t.Error("Lsh across words")
	}
	if !wide.Lsh(99).Rsh(99).Bit(0) {
		t.Error("Rsh across words")
	}
}

func TestShiftNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(4).Lsh(-1)
}

// Property: shifting matches uint64 arithmetic within 64 bits.
func TestQuickShiftsMatchUint64(t *testing.T) {
	f := func(v uint64, widthSeed, shiftSeed uint8) bool {
		w := int(widthSeed)%64 + 1
		n := int(shiftSeed) % 70
		x := FromUint(v, w)
		wantL := FromUint(v<<uint(min(n, 63)), w)
		if n > 63 {
			wantL = New(w)
		}
		wantR := New(w)
		if n <= 63 {
			wantR = FromUint(x.Uint64()>>uint(n), w)
		}
		return x.Lsh(n).Equal(wantL) && x.Rsh(n).Equal(wantR)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// opCases applies each word-level operation to operands of width w (at
// least 4) seeded from v.
func opCases(w int, v uint64) []struct {
	name string
	op   func() Vector
} {
	x, y := FromUint(v, w), FromUint(v*0x9e3779b97f4a7c15>>7, w)
	hi, lo := FromUint(v, w/2), FromUint(v>>3, w-w/2)
	part := FromUint(v>>5, w/2)
	return []struct {
		name string
		op   func() Vector
	}{
		{"Concat", func() Vector { return Concat(hi, lo) }},
		{"And", func() Vector { return x.And(y) }},
		{"Or", func() Vector { return x.Or(y) }},
		{"Xor", func() Vector { return x.Xor(y) }},
		{"Not", func() Vector { return x.Not() }},
		{"Add", func() Vector { return x.Add(y) }},
		{"Sub", func() Vector { return x.Sub(y) }},
		{"Resize", func() Vector { return x.Resize(w - 1) }},
		{"Lsh", func() Vector { return x.Lsh(3) }},
		{"Rsh", func() Vector { return x.Rsh(3) }},
		{"Slice", func() Vector { return x.Slice(w-2, 1) }},
		{"SetSlice", func() Vector { return x.SetSlice(w/2-1, 0, part) }},
		{"SetBit", func() Vector { return x.SetBit(w-1, true) }},
	}
}

var sink Vector

// TestSmallOpsDoNotAllocate pins that every word-level operation whose
// result the interning table covers (width at most 16, value below
// 256) returns the shared instance instead of allocating. The parity
// tree the robust+parity protocol evaluates per bus word is built from
// these operations on 1- to 10-bit vectors.
func TestSmallOpsDoNotAllocate(t *testing.T) {
	for _, w := range []int{4, 8} {
		for _, o := range opCases(w, 0x5a) {
			if r := o.op(); r.Width() > smallVecW || r.Uint64() >= smallVecV {
				t.Fatalf("%s/w%d: result %s is outside the interning table", o.name, w, r)
			}
			if n := testing.AllocsPerRun(100, func() { sink = o.op() }); n != 0 {
				t.Errorf("%s on %d-bit vectors: %.0f allocs, want 0", o.name, w, n)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { sink = Concat(FromUint(128, 9), FromUint(0, 1)) }); n != 1 {
		t.Errorf("Concat to a 10-bit value above 255: %.0f allocs, want 1", n)
	}
}

// BenchmarkOps times each operation at 8 bits (results interned), 64
// bits (one word, values past the table) and 130 bits (three words).
func BenchmarkOps(b *testing.B) {
	for _, w := range []int{8, 64, 130} {
		for _, o := range opCases(w, 0xfedcba9876543210) {
			b.Run(fmt.Sprintf("%s/w%d", o.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink = o.op()
				}
			})
		}
	}
}
