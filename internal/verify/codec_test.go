package verify

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The binary codec's single obligation: it must partition states into
// exactly the equivalence classes of the legacy string encode() — equal
// bytes iff equal strings. These tests check the obligation three ways:
// pairwise over states harvested from real explorations, over crafted
// array-tail states (where the string rendering deliberately conflates
// distinct values), and over fuzz-generated state pairs.

// exploreStates runs the searcher and returns every stored state.
func exploreStates(t *testing.T, pcfg protogen.Config, vcfg Config) []*state {
	t.Helper()
	sys, _ := refinePQ(t, pcfg)
	m := newTestMachine(t, sys, vcfg)
	sr := newSearcher(m)
	if err := sr.run(); err != nil {
		t.Fatal(err)
	}
	return storedStates(t, sr)
}

// storedStates materializes every state a finished search stored.
func storedStates(t testing.TB, sr *searcher) []*state {
	t.Helper()
	states := make([]*state, sr.count())
	for i := range states {
		states[i] = sr.m.newState()
		if err := sr.loadState(sr.seq.in, int32(i), states[i]); err != nil {
			t.Fatal(err)
		}
	}
	return states
}

func checkPairwise(t *testing.T, label string, states []*state) {
	t.Helper()
	strs := make([]string, len(states))
	bins := make([][]byte, len(states))
	for i, st := range states {
		strs[i] = st.encode()
		bins[i] = st.encodeInto(nil)
	}
	for i := range states {
		for j := i; j < len(states); j++ {
			sEq := strs[i] == strs[j]
			bEq := bytes.Equal(bins[i], bins[j])
			if sEq != bEq {
				t.Fatalf("%s: states %d/%d: string equal=%v, binary equal=%v\nstr i: %q\nstr j: %q",
					label, i, j, sEq, bEq, strs[i], strs[j])
			}
			if bEq && hashKey(bins[i]) != hashKey(bins[j]) {
				t.Fatalf("%s: states %d/%d: equal keys hash differently", label, i, j)
			}
		}
	}
}

// TestCodecMatchesLegacyEncode harvests every state of the baseline
// drop-budget exploration plus a slice of the hardened protocol's
// space, and asserts pairwise that encodeInto and encode() induce the
// same equality relation. (The searcher dedups on the binary key, so
// all harvested states are pairwise distinct under it — the test's
// teeth are that the legacy strings must then be pairwise distinct
// too, plus the self-comparisons.)
func TestCodecMatchesLegacyEncode(t *testing.T) {
	base := exploreStates(t, protogen.Config{Protocol: spec.FullHandshake}, Config{MaxDrops: 1})
	checkPairwise(t, "baseline-drop1", base)

	robust := exploreStates(t, robustCfg(false), Config{MaxStates: 1500})
	if len(robust) > 400 {
		// Pairwise over every robust state would be O(62k^2); a strided
		// sample keeps the cross-section while staying fast.
		stride := len(robust)/400 + 1
		var sample []*state
		for i := 0; i < len(robust); i += stride {
			sample = append(sample, robust[i])
		}
		robust = sample
	}
	checkPairwise(t, "robust", robust)
}

// arrayTailState builds a minimal one-process state whose only global
// is a 12-element array; tweak >= 9 lands in the tail the string
// rendering summarizes away.
func arrayTailState(tweak int, delta uint64) *state {
	elems := make([]sim.Value, 12)
	for i := range elems {
		elems[i] = sim.VecVal{V: bits.FromUint(uint64(i), 8)}
	}
	if tweak >= 0 {
		elems[tweak] = sim.VecVal{V: bits.FromUint(uint64(tweak)+delta, 8)}
	}
	return &state{
		g:      []sim.Value{sim.ArrayVal{Elems: elems}},
		l:      [][]sim.Value{nil},
		ps:     []procState{{pc: 3, blocked: true, rem: -1}},
		budget: 1,
	}
}

// TestCodecConflatesArrayTails pins the deliberate imprecision: states
// differing only past array index 8 were one state to the string store,
// so they must stay one state to the binary store — a finer codec would
// silently change every recorded state count.
func TestCodecConflatesArrayTails(t *testing.T) {
	ref := arrayTailState(-1, 0)
	for _, tc := range []struct {
		name   string
		other  *state
		sameAs bool
	}{
		{"tail-9", arrayTailState(9, 7), true},
		{"tail-11", arrayTailState(11, 200), true},
		{"head-0", arrayTailState(0, 7), false},
		{"head-8", arrayTailState(8, 7), false},
	} {
		sEq := ref.encode() == tc.other.encode()
		bEq := bytes.Equal(ref.encodeInto(nil), tc.other.encodeInto(nil))
		if sEq != tc.sameAs {
			t.Fatalf("%s: legacy encode equal=%v, expected %v — ArrayVal.String changed; realign the codec", tc.name, sEq, tc.sameAs)
		}
		if bEq != tc.sameAs {
			t.Fatalf("%s: binary encode equal=%v, want %v", tc.name, bEq, tc.sameAs)
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
}

func genLayout(g *gsrc) *fuzzLayout {
	lay := &fuzzLayout{}
	for i, n := 0, 1+int(g.byte()%3); i < n; i++ {
		lay.gts = append(lay.gts, genType(g, 0))
	}
	for p, n := 0, 1+int(g.byte()%2); p < n; p++ {
		var ts []*slotType
		for i, nl := 0, int(g.byte()%3); i < nl; i++ {
			ts = append(ts, genType(g, 0))
		}
		lay.lts = append(lay.lts, ts)
	}
	lay.nTrack = int(g.byte() % 3)
	return lay
}

func genState(g *gsrc, lay *fuzzLayout) *state {
	st := &state{}
	for _, t := range lay.gts {
		st.g = append(st.g, genVal(g, t))
	}
	for _, ts := range lay.lts {
		var ls []sim.Value
		for _, t := range ts {
			ls = append(ls, genVal(g, t))
		}
		st.l = append(st.l, ls)
		st.ps = append(st.ps, procState{
			pc:      int32(g.byte()),
			blocked: g.byte()%2 == 1,
			fin:     g.byte()%2 == 1,
			rem:     int64(int8(g.byte())),
		})
	}
	for i := 0; i < lay.nTrack; i++ {
		st.lastW = append(st.lastW, int8(g.byte()%5)-1)
	}
	st.budget = int16(g.byte() % 4)
	return st
}

// copyState returns an independent shallow copy (values are immutable
// and shared, slices are fresh) the mutation modes below can edit.
func copyState(s *state) *state {
	ns := &state{
		g:      append([]sim.Value(nil), s.g...),
		l:      make([][]sim.Value, len(s.l)),
		ps:     append([]procState(nil), s.ps...),
		lastW:  append([]int8(nil), s.lastW...),
		budget: s.budget,
	}
	for i := range s.l {
		ns.l[i] = append([]sim.Value(nil), s.l[i]...)
	}
	return ns
}

// FuzzStateCodec generates a typed layout plus two states over it from
// the input bytes — independently drawn, identical, single-slot
// mutated, or array-tail mutated — and asserts the codec equivalence:
// binary keys equal iff legacy string keys equal.
func FuzzStateCodec(f *testing.F) {
	f.Add([]byte{})
	// One 12-element vec(8) array global, one process, tail mutation.
	f.Add([]byte{0x00, 0x03, 0x0c, 0x02, 0x07, 0x00, 0x00, 0x00,
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 3})
	f.Add([]byte("\x02\x04\x01\x00\x01\x02\x10records and bools and vectors, oh my"))
	f.Add([]byte{0x01, 0x02, 0x45, 0x01, 0x02, 0x02, 0x11, 0x02, 0x22,
		0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &gsrc{data: data}
		lay := genLayout(g)
		a := genState(g, lay)
		var b *state
		switch g.byte() % 4 {
		case 0: // independent draw
			b = genState(g, lay)
		case 1: // identical
			b = copyState(a)
		case 2: // one global slot regenerated
			b = copyState(a)
			slot := int(g.byte()) % len(lay.gts)
			b.g[slot] = genVal(g, lay.gts[slot])
		default: // array-tail mutation: strings must stay equal
			b = copyState(a)
			for slot, ty := range lay.gts {
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
		sEq := a.encode() == b.encode()
		bEq := bytes.Equal(a.encodeInto(nil), b.encodeInto(nil))
		if sEq != bEq {
			t.Fatalf("codec divergence: string equal=%v, binary equal=%v\nstr a: %q\nstr b: %q",
				sEq, bEq, a.encode(), b.encode())
		}
	})
}
