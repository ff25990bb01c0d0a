package verify

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/spec"
)

// This file is the binary state codec: the dedup key the searcher's
// store hashes and confirms. encodeInto must partition states exactly
// like the legacy string encode() — two states get equal byte keys iff
// their encode() strings are equal — because the recorded state counts
// (EXPERIMENTS.md) depend on the store's equivalence classes, not just
// on correctness. codec_test.go pins the equivalence over a generated
// corpus.
//
// Layout (all integers little-endian, fixed width):
//
//	globals     sim.AppendBinary per slot, in slot order
//	per process pc uint32 · flags byte (bit0 blocked, bit1 fin) ·
//	            rem uint64 · locals via sim.AppendBinary
//	lastW       one byte per tracked bus field
//	budget      uint16
//
// No per-field delimiters are needed: the machine fixes the global
// count, the process count and each process's local count, and every
// sim.AppendBinary rendering is self-delimiting, so the stream is
// uniquely decodable by position. A local that was never written keys
// as its initial value.
//
// The searcher never calls encodeInto on its hot path: it stores rows
// of interned value ids (row.go), and builds the same bytes by
// concatenating each value's cached encoding (rowLayout.appendKey), or
// hashes them without building them (rowLayout.hash). encodeInto is
// the definition those must match, and the spill tier's decoder is its
// inverse.

// encodeInto appends s's canonical binary key to dst and returns the
// extended slice. It allocates only when dst's capacity is exceeded.
func (s *state) encodeInto(dst []byte) []byte {
	for _, v := range s.g {
		dst = sim.AppendBinary(dst, v)
	}
	for p := range s.l {
		pc := uint32(s.ps[p].pc)
		dst = append(dst, byte(pc), byte(pc>>8), byte(pc>>16), byte(pc>>24))
		var flags byte
		if s.ps[p].blocked {
			flags |= 1
		}
		if s.ps[p].fin {
			flags |= 2
		}
		dst = append(dst, flags)
		r := uint64(s.ps[p].rem)
		dst = append(dst,
			byte(r), byte(r>>8), byte(r>>16), byte(r>>24),
			byte(r>>32), byte(r>>40), byte(r>>48), byte(r>>56))
		for i := range s.l[p] {
			dst = sim.AppendBinary(dst, s.keyLocal(p, i))
		}
	}
	for _, w := range s.lastW {
		dst = append(dst, byte(w))
	}
	return append(dst, byte(s.budget), byte(s.budget>>8))
}

// encodeTailsInto appends the extras stream that makes the dedup key
// losslessly decodable: full encodings of every array element the key
// omits (sim.AppendBinary conflates array tails past index 8 so that
// dedup classes match the legacy string store). The spill store
// persists key‖extras per sealed state; decodeState consumes both.
func (s *state) encodeTailsInto(dst []byte) []byte {
	for _, v := range s.g {
		dst = sim.AppendBinaryTails(dst, v)
	}
	for p := range s.l {
		for i := range s.l[p] {
			dst = sim.AppendBinaryTails(dst, s.keyLocal(p, i))
		}
	}
	return dst
}

// decodeState rebuilds a state into st from its key and extras streams
// — the inverse of (encodeInto, encodeTailsInto). The streams leave out
// each array's Lo and each record's type, which indexing and field
// stores need, so every slot is decoded against its declared type
// (declared). A local that was never written decodes as its initial
// value, the value it keys as. Malformed input (a torn spill record
// that passed its checksum by fluke, or a software bug) returns an
// error; the decoder never guesses.
func decodeState(m *machine, key, extras []byte, st *state) error {
	var err error
	var v sim.Value
	for i := range st.g {
		if v, key, extras, err = sim.DecodeBinary(key, extras); err != nil {
			return fmt.Errorf("verify: decode state global %d: %w", i, err)
		}
		if st.g[i], err = declared(v, m.globals[i].Type); err != nil {
			return fmt.Errorf("verify: decode state global %d: %w", i, err)
		}
	}
	for p, prog := range m.progs {
		if len(key) < 13 {
			return fmt.Errorf("verify: decode state: truncated process %d header", p)
		}
		st.ps[p] = procState{
			pc:      int32(uint32(key[0]) | uint32(key[1])<<8 | uint32(key[2])<<16 | uint32(key[3])<<24),
			blocked: key[4]&1 != 0,
			fin:     key[4]&2 != 0,
			rem: int64(uint64(key[5]) | uint64(key[6])<<8 | uint64(key[7])<<16 | uint64(key[8])<<24 |
				uint64(key[9])<<32 | uint64(key[10])<<40 | uint64(key[11])<<48 | uint64(key[12])<<56),
		}
		key = key[13:]
		for i, lv := range prog.locals {
			if v, key, extras, err = sim.DecodeBinary(key, extras); err != nil {
				return fmt.Errorf("verify: decode state proc %d local %d: %w", p, i, err)
			}
			if st.l[p][i], err = declared(v, lv.Type); err != nil {
				return fmt.Errorf("verify: decode state proc %d local %d: %w", p, i, err)
			}
		}
	}
	if len(key) < m.nTrack+2 {
		return fmt.Errorf("verify: decode state: truncated trailer")
	}
	for i := 0; i < m.nTrack; i++ {
		st.lastW[i] = int8(key[i])
	}
	key = key[m.nTrack:]
	st.budget = int16(uint16(key[0]) | uint16(key[1])<<8)
	if len(key) != 2 || len(extras) != 0 {
		return fmt.Errorf("verify: decode state: %d key and %d extras bytes left over", len(key)-2, len(extras))
	}
	clear(st.written)
	return nil
}

// declared restores what the binary codec leaves out of a decoded value
// from the type declared for its slot: each array's Lo and each
// record's type, recursively. A container that does not have the
// declared shape is an error.
func declared(v sim.Value, t spec.Type) (sim.Value, error) {
	switch t := t.(type) {
	case spec.ArrayType:
		av, ok := v.(sim.ArrayVal)
		if !ok || len(av.Elems) != t.Length {
			return nil, fmt.Errorf("decoded %T does not have its declared type %s", v, t)
		}
		for i, e := range av.Elems {
			var err error
			if av.Elems[i], err = declared(e, t.Elem); err != nil {
				return nil, err
			}
		}
		av.Lo = t.Lo
		return av, nil
	case spec.RecordType:
		rv, ok := v.(sim.RecordVal)
		if !ok || len(rv.Fields) != len(t.Fields) {
			return nil, fmt.Errorf("decoded %T does not have its declared type %s", v, t)
		}
		for i, f := range rv.Fields {
			var err error
			if rv.Fields[i], err = declared(f, t.Fields[i].Type); err != nil {
				return nil, err
			}
		}
		rv.Type = t
		return rv, nil
	}
	return v, nil
}

// FNV-1a, 64-bit. Inlined rather than hash/fnv so hashing a key is a
// single pass over the bytes with no Hash64 allocation per state.
const (
	fnvOffset64 = 1469598103934665603
	fnvPrime64  = 1099511628211
)

// hashKey returns the 64-bit FNV-1a hash of a binary state key — the
// datum the store indexes states by.
func hashKey(key []byte) uint64 { return fnvAppend(fnvOffset64, key) }

// hashString is hashKey for strings (violation-message dedup) without
// a []byte conversion allocation.
func hashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}
