package verify

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/spec"
)

// This file is the binary state codec: the state key the spill tier
// writes as a sealed state's record and compares a probe's key with.
// Two states have equal keys exactly when their slots are Equal, a local
// that was never written counting as its initial value, and their
// control and tail bytes are equal; the hot tier's row comparison
// (rowLayout.sameKey) is the same relation, so a state is the same
// state in either tier.
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
// uniquely decodable by position.
//
// The searcher never calls encodeInto: it stores rows of interned value
// ids (row.go), and builds the same bytes by concatenating each value's
// cached encoding (rowLayout.appendKey). encodeInto is the definition
// that must match, and decodeState is its inverse.

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

// decodeState rebuilds a state into st from its key — the inverse of
// encodeInto. The key leaves out each array's Lo and each record's
// type, which indexing and field stores need, so every slot is decoded
// against its declared type (declared). A local that was never written
// decodes as its initial value, the value it keys as. Malformed input
// (a torn spill record that passed its checksum by fluke, or a software
// bug) returns an error; the decoder never guesses.
func decodeState(m *machine, key []byte, st *state) error {
	var err error
	var v sim.Value
	for i := range st.g {
		if v, key, err = sim.DecodeBinary(key); err != nil {
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
			if v, key, err = sim.DecodeBinary(key); err != nil {
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
	if len(key) != 2 {
		return fmt.Errorf("verify: decode state: %d bytes left over", len(key)-2)
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

// FNV-1a, 64-bit: the hash of each value-table entry's key and of each
// violation message. Inlined rather than hash/fnv, so it allocates no
// Hash64.
const (
	fnvOffset64 = 1469598103934665603
	fnvPrime64  = 1099511628211
)

// fnvAppend continues an FNV-1a hash over b.
func fnvAppend(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// hashString is fnvAppend for strings (violation-message dedup) without
// a []byte conversion allocation.
func hashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}
