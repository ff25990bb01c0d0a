package verify

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The row's obligation: two states' rows compare equal
// (rowLayout.sameKey) exactly when their slots are Equal, an unset
// local counted as its initial value, and their control and tail bytes
// are equal, and equal states' rows hash alike in any value table.
// sameState is that relation, written against sim.Value.Equal; these
// tests hold the rows to it over crafted array-tail states and
// fuzz-generated state pairs, in both tiers of the store.

// sameState is the reference equality of two states of one machine.
func sameState(a, b *state) bool {
	for i := range a.g {
		if !a.g[i].Equal(b.g[i]) {
			return false
		}
	}
	for p := range a.l {
		if a.ps[p] != b.ps[p] {
			return false
		}
		for i := range a.l[p] {
			if !a.keyLocal(p, i).Equal(b.keyLocal(p, i)) {
				return false
			}
		}
	}
	return string(lastWBytes(a)) == string(lastWBytes(b)) && a.budget == b.budget
}

// keyLocal is process p's local i as sameState compares it: a local
// that was never written counts as its initial value.
func (st *state) keyLocal(p, i int) sim.Value {
	if v := st.l[p][i]; v != nil {
		return v
	}
	return st.lay.init[p][i]
}

func lastWBytes(st *state) []byte {
	b := make([]byte, len(st.lastW))
	for i, w := range st.lastW {
		b[i] = byte(w)
	}
	return b
}

// TestCodecKeepsArrayTails: two PQ states that differ only in
// comp2.MEM(60), an element past the nine String renders, are two
// states. Their rows differ, and the store keeps both: neither finds
// the other, by its own hash or when forced onto the other's.
func TestCodecKeepsArrayTails(t *testing.T) {
	sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
	m := newTestMachine(t, sys, Config{})
	slot := -1
	for i, name := range m.gname {
		if name == "comp2.MEM" {
			slot = i
		}
	}
	if slot < 0 {
		t.Fatal("PQ has no comp2.MEM")
	}
	a := m.initialState()
	b := m.newState()
	b.copyFrom(a)
	mem := a.g[slot].(sim.ArrayVal)
	elems := append([]sim.Value(nil), mem.Elems...)
	elems[60] = sim.VecVal{V: bits.FromUint(9, 16)}
	b.setG(slot, sim.ArrayVal{Lo: mem.Lo, Elems: elems})

	s := newSearcher(m)
	rowA, rowB := s.probe(a), s.probe(b)
	if s.lay.sameKey(s.seq.in, rowA, rowB) {
		t.Fatal("states differing only in MEM(60) have equal rows")
	}
	hA, hB := s.lay.hash(s.seq.in, rowA), s.lay.hash(s.seq.in, rowB)
	ja := s.put(hA, a)
	if j, ok, _ := s.lookup(s.seq, hB, rowB); ok {
		t.Fatalf("the MEM(60) state found node %d, the state it differs from", j)
	}
	if j, ok, _ := s.lookup(s.seq, hA, rowB); ok {
		t.Fatalf("forced onto its sibling's hash, the MEM(60) state matched node %d", j)
	}
	jb := s.put(hB, b)
	for _, tc := range []struct {
		h    uint64
		row  []byte
		want int32
	}{{hA, rowA, ja}, {hB, rowB, jb}} {
		if j, ok, _ := s.lookup(s.seq, tc.h, tc.row); !ok || j != tc.want {
			t.Fatalf("lookup = (%d, %v), want (%d, true)", j, ok, tc.want)
		}
	}
}

// gsrc is a deterministic byte source for the fuzz generator; reads
// past the end yield zeros so any input is total.
type gsrc struct {
	data []byte
	i    int
}

func (g *gsrc) byte() byte {
	if g.i >= len(g.data) {
		return 0
	}
	b := g.data[g.i]
	g.i++
	return b
}

func (g *gsrc) u64() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

// slotType is a generated "specification type" for one storage slot:
// both states of a pair draw their slot values from the same slotType,
// mirroring the real invariant that a slot's type never changes.
type slotType struct {
	kind   byte // 0 int, 1 bool, 2 vec, 3 array, 4 record
	width  int
	alen   int
	elem   *slotType
	rec    spec.RecordType
	fields []*slotType
}

func genType(g *gsrc, depth int) *slotType {
	k := g.byte() % 5
	if depth >= 2 && k >= 3 {
		k %= 3 // bound nesting
	}
	st := &slotType{kind: k}
	switch k {
	case 2:
		st.width = 1 + int(g.byte()%70)
	case 3:
		st.alen = int(g.byte() % 13) // crosses the 9-element tail boundary
		st.elem = genType(g, depth+1)
	case 4:
		n := 1 + int(g.byte()%3)
		st.rec = spec.RecordType{Name: "R"}
		for i := 0; i < n; i++ {
			st.fields = append(st.fields, genType(g, depth+1))
			st.rec.Fields = append(st.rec.Fields, spec.Field{Name: fmt.Sprintf("F%d", i), Type: spec.Bit})
		}
	}
	return st
}

func genVal(g *gsrc, t *slotType) sim.Value {
	switch t.kind {
	case 0:
		return sim.IntVal{V: int64(g.u64())}
	case 1:
		return sim.BoolVal{V: g.byte()%2 == 1}
	case 2:
		return sim.VecVal{V: bits.FromUint(g.u64(), t.width)}
	case 3:
		elems := make([]sim.Value, t.alen)
		for i := range elems {
			elems[i] = genVal(g, t.elem)
		}
		return sim.ArrayVal{Elems: elems}
	default:
		fs := make([]sim.Value, len(t.fields))
		for i := range fs {
			fs[i] = genVal(g, t.fields[i])
		}
		return sim.RecordVal{Type: t.rec, Fields: fs}
	}
}

type fuzzLayout struct {
	gts    []*slotType
	lts    [][]*slotType
	nTrack int
	// lay gives the states their row geometry and each local's initial
	// value, drawn once per layout.
	lay *rowLayout
}

func genLayout(g *gsrc) *fuzzLayout {
	fl := &fuzzLayout{}
	for i, n := 0, 1+int(g.byte()%3); i < n; i++ {
		fl.gts = append(fl.gts, genType(g, 0))
	}
	var nLocals []int
	for p, n := 0, 1+int(g.byte()%2); p < n; p++ {
		var ts []*slotType
		for i, nl := 0, int(g.byte()%3); i < nl; i++ {
			ts = append(ts, genType(g, 0))
		}
		fl.lts = append(fl.lts, ts)
		nLocals = append(nLocals, len(ts))
	}
	fl.nTrack = int(g.byte() % 3)
	lay := newRowLayout(len(fl.gts), nLocals, fl.nTrack)
	for _, ts := range fl.lts {
		var init []sim.Value
		for _, t := range ts {
			init = append(init, genVal(g, t))
		}
		lay.init = append(lay.init, init)
	}
	fl.lay = &lay
	return fl
}

// genLocal draws a local: unset, its initial value, or a fresh value.
func genLocal(g *gsrc, fl *fuzzLayout, p, i int) sim.Value {
	switch g.byte() % 4 {
	case 0:
		return nil
	case 1:
		return fl.lay.init[p][i]
	}
	return genVal(g, fl.lts[p][i])
}

func genState(g *gsrc, fl *fuzzLayout) *state {
	st := &state{lay: fl.lay, written: make([]uint64, (fl.lay.nIDs+63)/64)}
	for _, t := range fl.gts {
		st.g = append(st.g, genVal(g, t))
	}
	for p, ts := range fl.lts {
		ls := make([]sim.Value, len(ts))
		for i := range ts {
			ls[i] = genLocal(g, fl, p, i)
		}
		st.l = append(st.l, ls)
		st.ps = append(st.ps, procState{
			pc:      int32(g.byte()),
			blocked: g.byte()%2 == 1,
			fin:     g.byte()%2 == 1,
			rem:     int64(int8(g.byte())),
		})
	}
	for i := 0; i < fl.nTrack; i++ {
		st.lastW = append(st.lastW, int8(g.byte()%5)-1)
	}
	st.budget = int16(g.byte() % 4)
	return st
}

// copyState returns an independent shallow copy (values are immutable
// and shared, slices are fresh) the mutation modes below can edit.
func copyState(s *state) *state {
	ns := &state{
		g:       append([]sim.Value(nil), s.g...),
		l:       make([][]sim.Value, len(s.l)),
		ps:      append([]procState(nil), s.ps...),
		lastW:   append([]int8(nil), s.lastW...),
		budget:  s.budget,
		lay:     s.lay,
		written: make([]uint64, len(s.written)),
	}
	for i := range s.l {
		ns.l[i] = append([]sim.Value(nil), s.l[i]...)
	}
	return ns
}

// genPair draws a layout and two states over it: independently drawn,
// identical, one global slot regenerated, one local redrawn (unset,
// initial or fresh), or one array element past index 9 regenerated.
func genPair(g *gsrc) (a, b *state) {
	fl := genLayout(g)
	a = genState(g, fl)
	b = copyState(a)
	switch g.byte() % 5 {
	case 0:
		b = genState(g, fl)
	case 1:
	case 2:
		slot := int(g.byte()) % len(fl.gts)
		b.g[slot] = genVal(g, fl.gts[slot])
	case 3:
		p := int(g.byte()) % len(fl.lts)
		if n := len(fl.lts[p]); n > 0 {
			i := int(g.byte()) % n
			b.l[p][i] = genLocal(g, fl, p, i)
		}
	default:
		for slot, ty := range fl.gts {
			if ty.kind == 3 && ty.alen > 10 {
				av := a.g[slot].(sim.ArrayVal)
				elems := append([]sim.Value(nil), av.Elems...)
				idx := 10 + int(g.byte())%(ty.alen-10)
				elems[idx] = genVal(g, ty.elem)
				b.g[slot] = sim.ArrayVal{Elems: elems}
				break
			}
		}
	}
	return a, b
}

// FuzzStateCodec generates a typed layout plus two states over it from
// the input bytes (genPair) and holds the rows to the reference: rows
// interned into one table compare equal iff sameState, and then hash
// alike — in that table and in a fresh one, where the values get other
// ids.
func FuzzStateCodec(f *testing.F) {
	f.Add([]byte{})
	// One 12-element vec(8) array global holding 0..11 and one process
	// without locals; then the tail mutation, storing 42 into element 11.
	tail := []byte{0x00, 0x03, 0x0c, 0x02, 0x07, 0x00, 0x00, 0x00}
	for i := 0; i < 12; i++ {
		tail = append(tail, 0, 0, 0, 0, 0, 0, 0, byte(i))
	}
	f.Add(append(tail, 3, 1, 0, 0xff, 1, 4, 1, 0, 0, 0, 0, 0, 0, 0, 42))
	f.Add([]byte("\x02\x04\x01\x00\x01\x02\x10records and bools and vectors, oh my"))
	f.Add([]byte{0x01, 0x02, 0x45, 0x01, 0x02, 0x02, 0x11, 0x02, 0x22,
		0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := genPair(&gsrc{data: data})
		want := sameState(a, b)
		lay := a.lay
		in := newInterner(newValueTable())
		rowA, rowB := make([]byte, lay.size), make([]byte, lay.size)
		lay.rowOf(in, rowB, b)
		lay.rowOf(in, rowA, a)
		if got := lay.sameKey(in, rowA, rowB); got != want {
			t.Fatalf("rows equal=%v, states equal=%v", got, want)
		}
		fresh := newInterner(newValueTable())
		rowF := make([]byte, lay.size)
		lay.rowOf(fresh, rowF, a)
		hA := lay.hash(in, rowA)
		if lay.hash(fresh, rowF) != hA {
			t.Fatal("a row's hash depends on its table's ids")
		}
		if want && lay.hash(in, rowB) != hA {
			t.Fatal("equal states hash differently")
		}
	})
}
