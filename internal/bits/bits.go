// Package bits implements fixed-width bit vectors with VHDL bit_vector
// semantics: a vector of width N models "bit_vector(N-1 downto 0)", bit 0
// being the least significant. Vectors are immutable values: no
// operation mutates its operands, and a result may share storage with an
// operand or with the table of interned small vectors.
//
// The package is the value substrate for the specification IR
// (internal/spec) and the discrete-event simulator (internal/sim): channel
// messages, bus data lines and memory words are all bit vectors.
//
// Operations work a 64-bit word at a time, and every result of at most 64
// bits is built by FromUint, so small results come from the interning
// table without allocating.
package bits

import (
	"fmt"
	mathbits "math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-width bit vector. The zero value is a zero-width
// vector. Bit 0 is the least significant bit.
type Vector struct {
	width int
	words []uint64 // little-endian; bits above width are always zero
}

// New returns an all-zero vector of the given width. It panics if width is
// negative.
func New(width int) Vector {
	if width < 0 {
		panic(fmt.Sprintf("bits: negative width %d", width))
	}
	return Vector{width: width, words: make([]uint64, wordCount(width))}
}

func wordCount(width int) int { return (width + wordBits - 1) / wordBits }

// Small interned vectors: every vector of width 1..smallVecW whose
// value is below smallVecV is a shared immutable instance. Simulated
// protocols move flags, opcodes and byte-wide data words — the same few
// thousand small values sliced and rebuilt millions of times per fault
// campaign — and vector operations are persistent (no method mutates a
// vector once returned), so constructors can hand out shared instances
// instead of allocating.
const (
	smallVecW = 16
	smallVecV = 256
)

var smallVecs [smallVecW][smallVecV]Vector

func init() {
	// One backing array for the whole table keeps it a single
	// allocation and cache-dense.
	backing := make([]uint64, smallVecW*smallVecV)
	for w := 1; w <= smallVecW; w++ {
		for v := 0; v < smallVecV; v++ {
			if w < 8 && v>>uint(w) != 0 {
				continue // value does not fit the width
			}
			words := backing[:1:1]
			backing = backing[1:]
			words[0] = uint64(v)
			smallVecs[w-1][v] = Vector{width: w, words: words}
		}
	}
}

// FromUint returns a vector of the given width holding v truncated to
// width bits.
func FromUint(v uint64, width int) Vector {
	if width >= 1 && width <= smallVecW {
		// A masked value fits its width, so the table holds it.
		if v &= maskLow(width); v < smallVecV {
			return smallVecs[width-1][v]
		}
	}
	x := New(width)
	if width > 0 {
		x.words[0] = v
		x.mask()
	}
	return x
}

// FromInt returns a vector of the given width holding the two's-complement
// encoding of v truncated to width bits.
func FromInt(v int64, width int) Vector {
	if width >= 1 && width <= smallVecW {
		return FromUint(uint64(v), width)
	}
	x := New(width)
	if width == 0 {
		return x
	}
	for i := range x.words {
		x.words[i] = uint64(v) // sign-extends across words
		if v < 0 {
			x.words[i] = ^uint64(0)
		}
	}
	x.words[0] = uint64(v)
	if v >= 0 {
		for i := 1; i < len(x.words); i++ {
			x.words[i] = 0
		}
	}
	x.mask()
	return x
}

// Parse parses a binary string such as "1010" (most significant bit first,
// optional '_' separators) into a vector whose width equals the number of
// binary digits.
func Parse(s string) (Vector, error) {
	digits := 0
	for _, c := range s {
		switch c {
		case '0', '1':
			digits++
		case '_':
		default:
			return Vector{}, fmt.Errorf("bits: invalid character %q in %q", c, s)
		}
	}
	x := New(digits)
	i := digits - 1
	for _, c := range s {
		switch c {
		case '0':
			i--
		case '1':
			x.words[i/wordBits] |= 1 << (i % wordBits)
			i--
		}
	}
	return x, nil
}

// MustParse is Parse but panics on error. Intended for literals in tests
// and generated code.
func MustParse(s string) Vector {
	x, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return x
}

// mask clears any bits above the width.
func (x *Vector) mask() {
	if x.width == 0 {
		return
	}
	if r := x.width % wordBits; r != 0 {
		x.words[len(x.words)-1] &= (1 << r) - 1
	}
}

// Width reports the number of bits in the vector.
func (x Vector) Width() int { return x.width }

// Bit reports bit i (0 = least significant). It panics if i is out of
// range.
func (x Vector) Bit(i int) bool {
	if i < 0 || i >= x.width {
		panic(fmt.Sprintf("bits: bit index %d out of range [0,%d)", i, x.width))
	}
	return x.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// SetBit returns a copy of x with bit i set to b.
func (x Vector) SetBit(i int, b bool) Vector {
	if i < 0 || i >= x.width {
		panic(fmt.Sprintf("bits: bit index %d out of range [0,%d)", i, x.width))
	}
	if x.width <= wordBits {
		m := uint64(1) << uint(i)
		if b {
			return FromUint(x.Uint64()|m, x.width)
		}
		return FromUint(x.Uint64()&^m, x.width)
	}
	y := x.Clone()
	if b {
		y.words[i/wordBits] |= 1 << (i % wordBits)
	} else {
		y.words[i/wordBits] &^= 1 << (i % wordBits)
	}
	return y
}

// Clone returns an independent copy of x.
func (x Vector) Clone() Vector {
	y := Vector{width: x.width, words: make([]uint64, len(x.words))}
	copy(y.words, x.words)
	return y
}

// AppendBytes appends x's packed bits to dst little-endian — exactly
// ceil(width/8) bytes, low byte first; bits above the width are zero
// (the representation invariant masks them). For equal-width vectors
// the appended bytes are equal iff the vectors are Equal, which makes
// the rendering usable as a hash/dedup key without going through
// String; the tight byte count matters because callers hash and
// compare millions of these.
func (x Vector) AppendBytes(dst []byte) []byte {
	n := (x.width + 7) / 8
	for _, w := range x.words {
		for k := 0; k < 8 && n > 0; k++ {
			dst = append(dst, byte(w))
			w >>= 8
			n--
		}
	}
	return dst
}

// Uint64 returns the value of the low 64 bits of x, zero-extended.
func (x Vector) Uint64() uint64 {
	if len(x.words) == 0 {
		return 0
	}
	return x.words[0]
}

// Int64 interprets x as a two's-complement signed number and returns its
// value. Vectors wider than 64 bits are truncated to their low 64 bits
// before sign interpretation of bit width-1.
func (x Vector) Int64() int64 {
	if x.width == 0 {
		return 0
	}
	v := x.Uint64()
	if x.width < 64 {
		if x.Bit(x.width - 1) { // sign extend
			v |= ^uint64(0) << x.width
		}
	}
	return int64(v)
}

// IsZero reports whether every bit of x is zero.
func (x Vector) IsZero() bool {
	for _, w := range x.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether x and y have the same width and bits.
func (x Vector) Equal(y Vector) bool {
	if x.width != y.width {
		return false
	}
	for i := range x.words {
		if x.words[i] != y.words[i] {
			return false
		}
	}
	return true
}

// Slice returns bits hi downto lo of x as a new vector of width hi-lo+1,
// mirroring the VHDL slice x(hi downto lo). It panics unless
// 0 <= lo <= hi < x.Width().
func (x Vector) Slice(hi, lo int) Vector {
	if lo < 0 || hi < lo || hi >= x.width {
		panic(fmt.Sprintf("bits: slice (%d downto %d) out of range for width %d", hi, lo, x.width))
	}
	w := hi - lo + 1
	if w <= wordBits {
		var v [1]uint64
		shiftDown(v[:], x.words, lo)
		return FromUint(v[0], w)
	}
	y := New(w)
	shiftDown(y.words, x.words, lo)
	y.mask()
	return y
}

// SetSlice returns a copy of x with bits hi downto lo replaced by v, which
// must have width hi-lo+1.
func (x Vector) SetSlice(hi, lo int, v Vector) Vector {
	if lo < 0 || hi < lo || hi >= x.width {
		panic(fmt.Sprintf("bits: slice (%d downto %d) out of range for width %d", hi, lo, x.width))
	}
	if v.width != hi-lo+1 {
		panic(fmt.Sprintf("bits: slice width mismatch: slot %d, value %d", hi-lo+1, v.width))
	}
	if x.width <= wordBits {
		msk := maskLow(v.width) << uint(lo)
		return FromUint(x.Uint64()&^msk|v.Uint64()<<uint(lo), x.width)
	}
	y := x.Clone()
	// Word-at-a-time store: within each word the slot spans, mask out the
	// slot bits and or in the corresponding word of v shifted into place.
	word, off := lo/wordBits, uint(lo%wordBits)
	lastWord := hi / wordBits
	for j := word; j <= lastWord; j++ {
		start := 0
		if j == word {
			start = int(off)
		}
		end := wordBits - 1
		if j == lastWord {
			end = hi % wordBits
		}
		msk := maskLow(end-start+1) << uint(start)
		// Word j of v<<off: the low part of v.words[k] plus the carry out
		// of v.words[k-1].
		k := j - word
		var val uint64
		if k < len(v.words) {
			val = v.words[k] << off
		}
		if off != 0 && k > 0 {
			val |= v.words[k-1] >> (wordBits - off)
		}
		y.words[j] = y.words[j]&^msk | val&msk
	}
	return y
}

// maskLow returns a mask of the n lowest bits (n in [0,64]).
func maskLow(n int) uint64 {
	if n >= wordBits {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}

// shiftDown fills dst with src shifted right by n bits, zero-filled.
func shiftDown(dst, src []uint64, n int) {
	word, off := n/wordBits, uint(n%wordBits)
	for i := range dst {
		if word+i >= len(src) {
			return
		}
		v := src[word+i] >> off
		if off != 0 && word+i+1 < len(src) {
			v |= src[word+i+1] << (wordBits - off)
		}
		dst[i] = v
	}
}

// orShiftedUp ors src shifted left by n bits into dst, dropping the bits
// shifted past dst's last word.
func orShiftedUp(dst, src []uint64, n int) {
	word, off := n/wordBits, uint(n%wordBits)
	for i, v := range src {
		j := word + i
		if j >= len(dst) {
			return
		}
		dst[j] |= v << off
		if off != 0 && j+1 < len(dst) {
			dst[j+1] |= v >> (wordBits - off)
		}
	}
}

// Concat returns the vector hi & lo (hi occupying the most significant
// bits), of width hi.Width()+lo.Width().
func Concat(hi, lo Vector) Vector {
	w := hi.width + lo.width
	if w <= wordBits {
		return FromUint(hi.Uint64()<<uint(lo.width)|lo.Uint64(), w)
	}
	y := New(w)
	copy(y.words, lo.words)
	orShiftedUp(y.words, hi.words, lo.width)
	return y
}

// Resize returns x truncated or zero-extended to the given width.
func (x Vector) Resize(width int) Vector {
	if width == x.width {
		// Vectors are persistent; an identity resize can share x.
		return x
	}
	if width <= wordBits {
		return FromUint(x.Uint64(), width)
	}
	y := New(width)
	copy(y.words, x.words)
	y.mask()
	return y
}

// Add returns x+y modulo 2^width. Both operands must have equal width.
func (x Vector) Add(y Vector) Vector {
	x.checkSameWidth(y, "Add")
	if x.width <= wordBits {
		return FromUint(x.Uint64()+y.Uint64(), x.width)
	}
	z := New(x.width)
	var carry uint64
	for i := range x.words {
		z.words[i], carry = mathbits.Add64(x.words[i], y.words[i], carry)
	}
	z.mask()
	return z
}

// Sub returns x-y modulo 2^width. Both operands must have equal width.
func (x Vector) Sub(y Vector) Vector {
	x.checkSameWidth(y, "Sub")
	if x.width <= wordBits {
		return FromUint(x.Uint64()-y.Uint64(), x.width)
	}
	z := New(x.width)
	var borrow uint64
	for i := range x.words {
		z.words[i], borrow = mathbits.Sub64(x.words[i], y.words[i], borrow)
	}
	z.mask()
	return z
}

// Not returns the bitwise complement of x.
func (x Vector) Not() Vector {
	if x.width <= wordBits {
		return FromUint(^x.Uint64(), x.width)
	}
	z := New(x.width)
	for i := range x.words {
		z.words[i] = ^x.words[i]
	}
	z.mask()
	return z
}

// And returns x AND y. Both operands must have equal width.
func (x Vector) And(y Vector) Vector {
	x.checkSameWidth(y, "And")
	if x.width <= wordBits {
		return FromUint(x.Uint64()&y.Uint64(), x.width)
	}
	z := New(x.width)
	for i := range x.words {
		z.words[i] = x.words[i] & y.words[i]
	}
	return z
}

// Or returns x OR y. Both operands must have equal width.
func (x Vector) Or(y Vector) Vector {
	x.checkSameWidth(y, "Or")
	if x.width <= wordBits {
		return FromUint(x.Uint64()|y.Uint64(), x.width)
	}
	z := New(x.width)
	for i := range x.words {
		z.words[i] = x.words[i] | y.words[i]
	}
	return z
}

// Xor returns x XOR y. Both operands must have equal width.
func (x Vector) Xor(y Vector) Vector {
	x.checkSameWidth(y, "Xor")
	if x.width <= wordBits {
		return FromUint(x.Uint64()^y.Uint64(), x.width)
	}
	z := New(x.width)
	for i := range x.words {
		z.words[i] = x.words[i] ^ y.words[i]
	}
	return z
}

// CompareUnsigned compares x and y as unsigned numbers, returning -1, 0 or
// +1. Operands of different widths are compared by value.
func (x Vector) CompareUnsigned(y Vector) int {
	n := max(len(x.words), len(y.words))
	for i := n - 1; i >= 0; i-- {
		var xv, yv uint64
		if i < len(x.words) {
			xv = x.words[i]
		}
		if i < len(y.words) {
			yv = y.words[i]
		}
		switch {
		case xv < yv:
			return -1
		case xv > yv:
			return 1
		}
	}
	return 0
}

func (x Vector) checkSameWidth(y Vector, op string) {
	if x.width != y.width {
		panic(fmt.Sprintf("bits: %s width mismatch: %d vs %d", op, x.width, y.width))
	}
}

// String renders x as a binary string, most significant bit first, e.g.
// "1010" for a 4-bit vector holding 10. A zero-width vector renders as "".
func (x Vector) String() string {
	var b strings.Builder
	b.Grow(x.width)
	for i := x.width - 1; i >= 0; i-- {
		if x.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Hex renders x as X"..." in the VHDL style, padding the width up to a
// multiple of four bits.
func (x Vector) Hex() string {
	n := (x.width + 3) / 4
	var b strings.Builder
	b.WriteString(`X"`)
	for i := n - 1; i >= 0; i-- {
		var nib uint64
		for j := 3; j >= 0; j-- {
			bit := i*4 + j
			nib <<= 1
			if bit < x.width && x.Bit(bit) {
				nib |= 1
			}
		}
		fmt.Fprintf(&b, "%X", nib)
	}
	b.WriteString(`"`)
	return b.String()
}

// Words splits x into ceil(width/w) vectors of width w each, least
// significant word first; the final word is zero-padded. This is exactly
// the word slicing performed by generated SendCH/ReceiveCH procedures when
// a message wider than the bus is transferred in several bus cycles.
func (x Vector) Words(w int) []Vector {
	if w <= 0 {
		panic(fmt.Sprintf("bits: invalid word width %d", w))
	}
	n := (x.width + w - 1) / w
	if n == 0 {
		return nil
	}
	out := make([]Vector, n)
	for i := 0; i < n; i++ {
		lo := i * w
		hi := min(lo+w-1, x.width-1)
		out[i] = x.Slice(hi, lo).Resize(w)
	}
	return out
}

// Join reassembles a message of the given width from bus words produced by
// Words(w): the inverse of Words up to the zero padding of the final word.
func Join(words []Vector, width int) Vector {
	x := New(width)
	pos := 0
	for _, wv := range words {
		for i := 0; i < wv.Width() && pos < width; i++ {
			if wv.Bit(i) {
				x.words[pos/wordBits] |= 1 << (pos % wordBits)
			}
			pos++
		}
	}
	return x
}

// Lsh returns x shifted left by n bits (zero fill, width preserved).
func (x Vector) Lsh(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bits: negative shift %d", n))
	}
	if x.width <= wordBits {
		return FromUint(x.Uint64()<<uint(n), x.width)
	}
	y := New(x.width)
	orShiftedUp(y.words, x.words, n)
	y.mask()
	return y
}

// Rsh returns x shifted right by n bits (zero fill, width preserved).
func (x Vector) Rsh(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bits: negative shift %d", n))
	}
	if x.width <= wordBits {
		return FromUint(x.Uint64()>>uint(n), x.width)
	}
	y := New(x.width)
	shiftDown(y.words, x.words, n)
	return y
}
