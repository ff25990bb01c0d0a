package verify

import (
	"fmt"

	"repro/internal/sim"
)

// This file is the binary state codec: the dedup key the searcher's
// store hashes and confirms against. encodeInto must partition states
// exactly like the legacy string encode() — two states get equal byte
// keys iff their encode() strings are equal — because the recorded
// state counts (EXPERIMENTS.md) depend on the store's equivalence
// classes, not just on correctness. codec_test.go pins the equivalence
// over a generated corpus.
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

// encodeInto appends s's canonical binary key to dst and returns the
// extended slice. It allocates only when dst's capacity is exceeded —
// callers reuse per-worker scratch buffers across successors.
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
		for _, v := range s.l[p] {
			dst = sim.AppendBinary(dst, v)
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
		for _, v := range s.l[p] {
			dst = sim.AppendBinaryTails(dst, v)
		}
	}
	return dst
}

// decodeState rebuilds a state from its key and extras streams — the
// inverse of (encodeInto, encodeTailsInto). The shell comes from the
// machine's pool like any cloneShared child, but every inner local
// slice is freshly allocated: pooled shells may still alias inner
// slices of live states. Malformed input (a torn spill record that
// passed its checksum by fluke, or a software bug) returns an error;
// the decoder never guesses.
func decodeState(m *machine, key, extras []byte) (*state, error) {
	st, ok := m.pool.Get().(*state)
	if !ok {
		st = &state{
			g:     make([]sim.Value, len(m.globals)),
			l:     make([][]sim.Value, len(m.progs)),
			ps:    make([]procState, len(m.progs)),
			lastW: make([]int8, m.nTrack),
		}
	}
	var err error
	for i := range st.g {
		if st.g[i], key, extras, err = sim.DecodeBinary(key, extras); err != nil {
			return nil, fmt.Errorf("verify: decode state global %d: %w", i, err)
		}
	}
	for p, prog := range m.progs {
		if len(key) < 13 {
			return nil, fmt.Errorf("verify: decode state: truncated process %d header", p)
		}
		st.ps[p] = procState{
			pc:      int32(uint32(key[0]) | uint32(key[1])<<8 | uint32(key[2])<<16 | uint32(key[3])<<24),
			blocked: key[4]&1 != 0,
			fin:     key[4]&2 != 0,
			rem: int64(uint64(key[5]) | uint64(key[6])<<8 | uint64(key[7])<<16 | uint64(key[8])<<24 |
				uint64(key[9])<<32 | uint64(key[10])<<40 | uint64(key[11])<<48 | uint64(key[12])<<56),
		}
		key = key[13:]
		loc := make([]sim.Value, len(prog.locals))
		for i := range loc {
			if loc[i], key, extras, err = sim.DecodeBinary(key, extras); err != nil {
				return nil, fmt.Errorf("verify: decode state proc %d local %d: %w", p, i, err)
			}
		}
		st.l[p] = loc
	}
	if len(key) < m.nTrack+2 {
		return nil, fmt.Errorf("verify: decode state: truncated trailer")
	}
	for i := 0; i < m.nTrack; i++ {
		st.lastW[i] = int8(key[i])
	}
	key = key[m.nTrack:]
	st.budget = int16(uint16(key[0]) | uint16(key[1])<<8)
	if len(key) != 2 || len(extras) != 0 {
		return nil, fmt.Errorf("verify: decode state: %d key and %d extras bytes left over", len(key)-2, len(extras))
	}
	return st, nil
}

// FNV-1a, 64-bit. Inlined rather than hash/fnv so hashing a key is a
// single pass over the bytes with no Hash64 allocation per state.
const (
	fnvOffset64 = 1469598103934665603
	fnvPrime64  = 1099511628211
)

// hashKey returns the 64-bit FNV-1a hash of a binary state key — the
// only per-state datum the store retains.
func hashKey(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

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
