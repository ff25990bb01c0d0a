package verify

import (
	"encoding/binary"
	mathbits "math/bits"

	"repro/internal/sim"
)

// This file is how the searcher holds a stored state: a row, a
// fixed-length run of bytes with no pointers in it, laid out as
//
//	ids      one uint32 value id (values.go) per global slot, then per
//	         process per local slot
//	control  per process pc uint32 · flags byte (bit0 blocked, bit1
//	         fin) · rem uint64
//	tail     lastW, one byte per tracked bus field · budget uint16
//
// all little-endian. Rows live in chunked slabs the collector never
// scans, and a node finds its row by its index; a sealed node's row
// moves to the spill tier as it is (spill.go). Verify-deep's proof (38
// value slots, 4 processes, 4 tracked fields) stores 210 bytes per
// state.

// rowLayout is the machine's row geometry.
type rowLayout struct {
	nIDs  int   // value slots: globals, then every process's locals
	lbase []int // first value slot of each process's locals
	ctl   int   // offset of the control bytes
	tail  int   // offset of the tail bytes
	size  int
	// init holds each process's local initial values: what a local that
	// was never written (nil) keys as.
	init [][]sim.Value
}

// procCtl is the size of one process's control bytes.
const procCtl = 13

func newRowLayout(nGlobals int, nLocals []int, nTrack int) rowLayout {
	lay := rowLayout{nIDs: nGlobals}
	for _, n := range nLocals {
		lay.lbase = append(lay.lbase, lay.nIDs)
		lay.nIDs += n
	}
	lay.ctl = 4 * lay.nIDs
	lay.tail = lay.ctl + procCtl*len(nLocals)
	lay.size = lay.tail + nTrack + 2
	return lay
}

func rowID(row []byte, i int) uint32 { return binary.LittleEndian.Uint32(row[4*i:]) }

func putRowID(row []byte, i int, id uint32) { binary.LittleEndian.PutUint32(row[4*i:], id) }

// putControl writes st's control and tail bytes into row.
func (lay *rowLayout) putControl(row []byte, st *state) {
	c := row[lay.ctl:]
	for p := range st.ps {
		ps := &st.ps[p]
		binary.LittleEndian.PutUint32(c, uint32(ps.pc))
		var flags byte
		if ps.blocked {
			flags |= 1
		}
		if ps.fin {
			flags |= 2
		}
		c[4] = flags
		binary.LittleEndian.PutUint64(c[5:], uint64(ps.rem))
		c = c[procCtl:]
	}
	for i, w := range st.lastW {
		c[i] = byte(w)
	}
	binary.LittleEndian.PutUint16(c[len(st.lastW):], uint16(st.budget))
}

// rowProc decodes process p's control bytes.
func (lay *rowLayout) rowProc(row []byte, p int) procState {
	c := row[lay.ctl+procCtl*p:]
	return procState{
		pc:      int32(binary.LittleEndian.Uint32(c)),
		blocked: c[4]&1 != 0,
		fin:     c[4]&2 != 0,
		rem:     int64(binary.LittleEndian.Uint64(c[5:])),
	}
}

// materialize loads row into st: every value from the table, the
// control and tail bytes decoded. st's written marks are cleared.
func (lay *rowLayout) materialize(in *interner, row []byte, st *state) {
	for i := range st.g {
		st.g[i] = in.entry(rowID(row, i)).val
	}
	for p, loc := range st.l {
		base := lay.lbase[p]
		for i := range loc {
			loc[i] = in.entry(rowID(row, base+i)).val
		}
		st.ps[p] = lay.rowProc(row, p)
	}
	tail := row[lay.tail:]
	for i := range st.lastW {
		st.lastW[i] = int8(tail[i])
	}
	st.budget = int16(binary.LittleEndian.Uint16(tail[len(st.lastW):]))
	clear(st.written)
}

// build writes the row of st into dst: base's ids for the slots st did
// not write, the interned value for the slots it did, then st's control
// and tail bytes. base is the row st was derived from; dst may alias it.
func (lay *rowLayout) build(in *interner, dst, base []byte, st *state) {
	copy(dst[:lay.ctl], base[:lay.ctl])
	for w, bits := range st.written {
		for bits != 0 {
			i := 64*w + mathbits.TrailingZeros64(bits)
			bits &= bits - 1
			putRowID(dst, i, in.intern(st.slot(lay, i)))
		}
	}
	lay.putControl(dst, st)
}

// hash is the row's state hash: each value slot's entry hash, then the
// control and tail bytes a word at a time, mixed in row order. Entry
// hashes depend only on the values, so two rows that hold equal states
// hash alike whichever worker interned their values.
func (lay *rowLayout) hash(in *interner, row []byte) uint64 {
	h := uint64(hashSeed)
	for i := 0; i < lay.nIDs; i++ {
		h = mixWord(h, in.entry(rowID(row, i)).hash)
	}
	b := row[lay.ctl:lay.size]
	for ; len(b) >= 8; b = b[8:] {
		h = mixWord(h, binary.LittleEndian.Uint64(b))
	}
	var w uint64
	for i, c := range b {
		w |= uint64(c) << (8 * i)
	}
	return mixWord(h, w)
}

// hashSeed starts a row hash; mixWord folds one word into it. Each step
// is a bijection of the running hash, so two rows whose hashed words
// differ in one place never collide.
const hashSeed = 0x9e3779b97f4a7c15

func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// sameKey reports whether rows a and b hold equal states: value ids
// equal up to keyID, control and tail bytes equal.
func (lay *rowLayout) sameKey(in *interner, a, b []byte) bool {
	for i := 0; i < lay.nIDs; i++ {
		if x, y := rowID(a, i), rowID(b, i); x != y && in.keyID(x) != in.keyID(y) {
			return false
		}
	}
	return string(a[lay.ctl:lay.size]) == string(b[lay.ctl:lay.size])
}

// rowOf interns every slot of st into dst: the row of a state that has
// no base row, the initial state. A nil local is unset: it keys as the
// local's initial value.
func (lay *rowLayout) rowOf(in *interner, dst []byte, st *state) {
	for i := range st.g {
		putRowID(dst, i, in.intern(st.g[i]))
	}
	for p, loc := range st.l {
		for i, v := range loc {
			var id uint32
			if v == nil {
				id = in.internUnset(lay.init[p][i])
			} else {
				id = in.intern(v)
			}
			putRowID(dst, lay.lbase[p]+i, id)
		}
	}
	lay.putControl(dst, st)
}

// slab is a growable array kept in chunks that never move: chunk k
// holds slabBase<<k elements up to chunk slabMaxShift, and every later
// chunk as many as that one. A small search allocates small chunks, a
// large one never copies what it stored, and a chunk whose elements
// are all sealed can be dropped. Each element is stride Ts.
type slab[T any] struct {
	stride int
	chunks [][]T
	n      int
}

const (
	slabBase     = 64
	slabMaxShift = 6
	slabFixed    = slabBase << slabMaxShift
	// slabGrowing is the element count of the growing chunks.
	slabGrowing = slabBase * (1<<slabMaxShift - 1)
)

// locate maps element i to its chunk and its index in the chunk.
func locate(i int) (k, off int) {
	if i < slabGrowing {
		k = mathbits.Len(uint(i/slabBase+1)) - 1
		return k, i - slabBase*(1<<k-1)
	}
	i -= slabGrowing
	return slabMaxShift + i/slabFixed, i % slabFixed
}

// chunkLen is chunk k's element count.
func chunkLen(k int) int {
	if k < slabMaxShift {
		return slabBase << k
	}
	return slabFixed
}

// at returns element i.
func (s *slab[T]) at(i int) []T {
	k, off := locate(i)
	return s.chunks[k][off*s.stride : (off+1)*s.stride : (off+1)*s.stride]
}

// add appends a zero element and returns it.
func (s *slab[T]) add() []T {
	k, _ := locate(s.n)
	if k == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, chunkLen(k)*s.stride))
	}
	s.n++
	return s.at(s.n - 1)
}

// dropBelow releases every chunk whose elements all lie below i.
func (s *slab[T]) dropBelow(i int) {
	end := 0
	for k := range s.chunks {
		end += chunkLen(k)
		if end > i {
			return
		}
		s.chunks[k] = nil
	}
}

// slot returns value slot i of st (row order).
func (st *state) slot(lay *rowLayout, i int) sim.Value {
	if i < len(st.g) {
		return st.g[i]
	}
	p := len(lay.lbase) - 1
	for lay.lbase[p] > i {
		p--
	}
	return st.l[p][i-lay.lbase[p]]
}
