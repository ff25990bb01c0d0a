package verify

import (
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/spec"
)

// This file is the search's value table: every distinct value a stored
// state holds, interned once, so a stored state is a row of value ids
// (row.go) instead of a graph of heap objects. Protocol state spaces
// are wide but their values are few — verify-deep's 62,326-state proof
// holds 80 distinct values in its 38 value slots — which is why SPIN's
// COLLAPSE mode stores states as indices into component tables.
//
// A value is interned by its full content: its complete encoding plus
// what sim.AppendBinary leaves out (ArrayVal.Lo and RecordVal.Type), so
// materializing an id gives back a value that executes exactly like the
// one interned. A slot's type fixes Lo and the record type, so within
// one slot distinct ids hold values that are not Equal, and a stored
// row's identity is its ids. The one exception is an unset local, the
// value of a local that was never written: it materializes as nil but
// keys as its initial value, so its entry names that value's id. Each
// entry caches a 64-bit hash of the value's sim.AppendBinary encoding,
// taken once when the value is interned, which the row hash mixes.
//
// One table per search. Workers intern concurrently: each keeps a
// private cache in front of the shared table and a snapshot of its
// entries. Ids depend on which worker interned a value first, so
// nothing observable may depend on their order; hashes and verdicts
// depend only on the entries' contents.

// valueEntry is one interned value. Entries never change once
// published.
type valueEntry struct {
	// val is nil for an unset entry, which keys as the value with id
	// init and shares that entry's hash.
	val  sim.Value
	hash uint64 // of val's sim.AppendBinary bytes; never of an id
	init uint32
}

// recType identifies a record type by the backing array of its fields:
// values rebuilt from one declared type share it.
type recType struct {
	fields *spec.Field
	n      int
	name   string
}

func recTypeOf(t spec.RecordType) recType {
	k := recType{n: len(t.Fields), name: t.Name}
	if len(t.Fields) > 0 {
		k.fields = &t.Fields[0]
	}
	return k
}

// valueTable is the shared side of the table. The entry slice is
// published through snap: a writer appends under mu and stores the new
// header, and readers load it without locking (entries below a
// published length are never written again).
type valueTable struct {
	mu    sync.Mutex
	ids   map[string]uint32 // full content → id
	types map[recType]uint32
	ents  []valueEntry
	snap  atomic.Pointer[[]valueEntry]
}

func newValueTable() *valueTable {
	t := &valueTable{
		ids:   make(map[string]uint32),
		types: make(map[recType]uint32),
	}
	t.snap.Store(&t.ents)
	return t
}

// add interns the value whose full content is full, building its entry
// from val on a miss; a nil val is an unset entry keyed as the value
// with id init.
func (t *valueTable) add(full []byte, val sim.Value, init uint32) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[string(full)]; ok {
		return id
	}
	id := uint32(len(t.ents))
	e := valueEntry{val: val, init: init}
	if val == nil {
		e.hash = t.ents[init].hash
	} else {
		e.hash = bloomMix(fnvAppend(fnvOffset64, sim.AppendBinary(nil, val)))
	}
	t.ids[string(full)] = id
	t.ents = append(t.ents, e)
	ents := t.ents
	t.snap.Store(&ents)
	return id
}

// typeID numbers a record type for full-content keys.
func (t *valueTable) typeID(k recType) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.types[k]
	if !ok {
		id = uint32(len(t.types))
		t.types[k] = id
	}
	return id
}

// interner is one worker's view of the table: a private cache from full
// content to id, and a snapshot of the entries that covers every id the
// worker has seen. Not safe for concurrent use.
type interner struct {
	t     *valueTable
	ids   map[string]uint32
	types map[recType]uint32
	ents  []valueEntry
	buf   []byte
}

func newInterner(t *valueTable) *interner {
	return &interner{
		t:     t,
		ids:   make(map[string]uint32),
		types: make(map[recType]uint32),
		ents:  *t.snap.Load(),
	}
}

// refresh takes the table's current snapshot. Ids interned before the
// caller last synchronized with their writer (a BFS layer boundary, or
// this interner's own add) are covered.
func (in *interner) refresh() { in.ents = *in.t.snap.Load() }

// entry returns id's entry, taking a fresh snapshot when id is newer
// than the worker's.
func (in *interner) entry(id uint32) *valueEntry {
	if int(id) >= len(in.ents) {
		in.refresh()
	}
	return &in.ents[id]
}

// keyID is the id an entry keys as: its own, or an unset entry's
// initial value's. Two rows hold equal states exactly when their ids
// agree slot by slot up to keyID and their control bytes are equal.
func (in *interner) keyID(id uint32) uint32 {
	if e := in.entry(id); e.val == nil {
		return e.init
	}
	return id
}

// intern returns v's id. v must not be nil.
func (in *interner) intern(v sim.Value) uint32 {
	in.buf = in.appendFull(in.buf[:0], v)
	if id, ok := in.ids[string(in.buf)]; ok {
		return id
	}
	id := in.t.add(in.buf, v, 0)
	in.ids[string(in.buf)] = id
	in.refresh()
	return id
}

// internUnset returns the id of an unset local whose initial value is
// like: it materializes as nil but keys as like. Its full content is
// like's id, which is unique in the table.
func (in *interner) internUnset(like sim.Value) uint32 {
	init := in.intern(like)
	in.buf = appendU32(append(in.buf[:0], 'n'), init)
	if id, ok := in.ids[string(in.buf)]; ok {
		return id
	}
	id := in.t.add(in.buf, nil, init)
	in.ids[string(in.buf)] = id
	in.refresh()
	return id
}

// appendFull appends v's full content: sim.AppendBinary's layout with
// each array's Lo and each record's type added.
func (in *interner) appendFull(dst []byte, v sim.Value) []byte {
	switch v := v.(type) {
	case sim.ArrayVal:
		lo := uint64(int64(v.Lo))
		dst = appendU32(append(dst, 'a'), uint32(len(v.Elems)))
		dst = appendU32(appendU32(dst, uint32(lo)), uint32(lo>>32))
		for _, e := range v.Elems {
			dst = in.appendFull(dst, e)
		}
		return dst
	case sim.RecordVal:
		k := recTypeOf(v.Type)
		tid, ok := in.types[k]
		if !ok {
			tid = in.t.typeID(k)
			in.types[k] = tid
		}
		dst = appendU32(appendU32(append(dst, 'r'), uint32(len(v.Fields))), tid)
		for _, f := range v.Fields {
			dst = in.appendFull(dst, f)
		}
		return dst
	}
	return sim.AppendBinary(dst, v)
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// FNV-1a, 64-bit: the hash of each value-table entry's encoding and of
// each violation message. Inlined rather than hash/fnv, so it allocates
// no Hash64.
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
