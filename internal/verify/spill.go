package verify

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// This file is the cold tier of the dedup store: a disk spill for
// sealed BFS layers, so the hot states' rows stay within
// Config.MemBudget whatever the state count (each state's node
// bookkeeping stays in RAM). A sealed state is its row: its value ids
// stay valid on disk because the search's value table lives as long as
// the store, which is SPIN's COLLAPSE idea carried into the cold tier.
// The layout follows the external-memory lineage of explicit-state
// checkers (SPIN's disk modes): one append-only data file of fixed-size
// records in node order, so sealed node j sits at offset j × record
// size; one sorted immutable hash index, rewritten by a sequential
// merge whenever layers seal; and an in-RAM Bloom filter in front of
// the index, so the overwhelmingly common miss never touches disk.
//
//	record       row ‖ u32 fnv32(row)
//	index entry  hash u64 ‖ node u32, sorted by (hash, node)
//
// all little-endian.
//
// Soundness contract: in exact mode a hash hit in the index is only a
// candidate: its record is read back and confirmed with
// rowLayout.sameKey, the relation the hot tier confirms with. The Bloom
// filter has no false negatives, so it can only suppress reads that
// would have missed anyway. In lossy mode (Config.Lossy) the 64-bit
// hash match itself is accepted and the verdict carries an omission
// probability, SPIN-bitstate style.
//
// Everything here runs under the searcher's phase discipline: writes
// (add, finishBatch) happen only in the sequential seal phase between
// BFS layers; during parallel expansion the store is frozen and
// lookup/read may run concurrently: they touch only the immutable
// index mapping, the Bloom filter and pread on the data file.

const (
	// recSum is a record's checksum size in bytes.
	recSum = 4
	// spillIdxEntry is one index entry's size in bytes.
	spillIdxEntry = 12
)

type idxEnt struct {
	h    uint64
	node int32
}

// spillStore is the cold tier, in one scratch directory.
type spillStore struct {
	dir  string
	rec  int // record size: a row and its checksum
	data *os.File
	// w buffers the batch's records; its errors are sticky, so a failed
	// write surfaces at the batch's Flush.
	w   *bufio.Writer
	sum [recSum]byte // the checksum add writes
	n   int32        // sealed nodes, the prefix [0, n)
	// pend holds this batch's index entries until finishBatch merges
	// them into the sorted index.
	pend []idxEnt
	// idx is the current index generation, count entries,
	// memory-mapped read-only.
	idx     mmapRegion
	idxPath string
	gen     int
	count   int
	bloom   bloomFilter
}

// newSpillStore opens the store for rows of rowSize bytes in dir, which
// it owns: close removes it.
func newSpillStore(dir string, rowSize int) (*spillStore, error) {
	f, err := os.OpenFile(filepath.Join(dir, "rows.dat"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("verify: spill: %w", err)
	}
	return &spillStore{
		dir: dir, rec: rowSize + recSum, data: f,
		w: bufio.NewWriterSize(f, 1<<16), bloom: newBloom(1 << 12),
	}, nil
}

// close releases the files and removes the scratch directory.
func (sp *spillStore) close() {
	sp.idx.unmap()
	sp.data.Close()
	os.RemoveAll(sp.dir)
}

// states reports how many sealed states the store holds.
func (sp *spillStore) states() int { return int(sp.n) }

// bytes reports the data file's size: one record per sealed state.
func (sp *spillStore) bytes() int64 { return int64(sp.n) * int64(sp.rec) }

// add seals node j, whose row hashes to h: the row and its checksum are
// appended to the data file. Nodes must be added in node-id order, so
// the sealed set stays a contiguous prefix and j's record sits at
// j × record size. Only called from the sequential seal phase.
func (sp *spillStore) add(h uint64, j int32, row []byte) error {
	if j != sp.n {
		return fmt.Errorf("verify: spill: sealing node %d out of order (next is %d)", j, sp.n)
	}
	binary.LittleEndian.PutUint32(sp.sum[:], fnv32(row))
	sp.w.Write(row)
	sp.w.Write(sp.sum[:])
	sp.pend = append(sp.pend, idxEnt{h: h, node: j})
	sp.n++
	return nil
}

// finishBatch flushes the data file and merges the pending entries into
// a new sorted index generation, growing the Bloom filter when it gets
// dense. Runs once per seal phase, sequentially.
func (sp *spillStore) finishBatch() error {
	if len(sp.pend) == 0 {
		return nil
	}
	if err := sp.w.Flush(); err != nil {
		return fmt.Errorf("verify: spill write: %w", err)
	}
	slices.SortFunc(sp.pend, func(a, b idxEnt) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node)
	})
	if err := sp.mergeIndex(); err != nil {
		return err
	}
	if sp.bloom.dense(sp.count) {
		sp.bloom = newBloom(2 * sp.count)
		for i := 0; i < sp.count; i++ {
			sp.bloom.add(sp.entry(i).h)
		}
	} else {
		for _, e := range sp.pend {
			sp.bloom.add(e.h)
		}
	}
	sp.pend = sp.pend[:0]
	return nil
}

// mergeIndex writes index generation gen+1 = merge(existing sorted
// index, sorted pend), maps it, and retires the old generation.
func (sp *spillStore) mergeIndex() error {
	newPath := filepath.Join(sp.dir, fmt.Sprintf("index.%d", sp.gen+1))
	f, err := os.OpenFile(newPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("verify: spill index: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var ebuf [spillIdxEntry]byte
	i, j := 0, 0
	for i < sp.count || j < len(sp.pend) {
		var e idxEnt
		switch {
		case i >= sp.count:
			e = sp.pend[j]
			j++
		case j >= len(sp.pend):
			e = sp.entry(i)
			i++
		default:
			a, b := sp.entry(i), sp.pend[j]
			if a.h < b.h || (a.h == b.h && a.node < b.node) {
				e = a
				i++
			} else {
				e = b
				j++
			}
		}
		binary.LittleEndian.PutUint64(ebuf[0:], e.h)
		binary.LittleEndian.PutUint32(ebuf[8:], uint32(e.node))
		w.Write(ebuf[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("verify: spill index: %w", err)
	}
	newCount := sp.count + len(sp.pend)
	m, err := mapFile(f, int64(newCount)*spillIdxEntry)
	f.Close()
	if err != nil {
		return fmt.Errorf("verify: spill index map: %w", err)
	}
	sp.idx.unmap()
	if sp.idxPath != "" {
		os.Remove(sp.idxPath)
	}
	sp.idx, sp.idxPath, sp.count, sp.gen = m, newPath, newCount, sp.gen+1
	return nil
}

// entry decodes sorted index entry i from the mapped index.
func (sp *spillStore) entry(i int) idxEnt {
	b := sp.idx.data[i*spillIdxEntry:]
	return idxEnt{
		h:    binary.LittleEndian.Uint64(b[0:]),
		node: int32(binary.LittleEndian.Uint32(b[8:])),
	}
}

// lookup finds the sealed node whose row holds the probe row's state,
// hash h. In exact mode each same-hash entry's record is read into rec,
// the caller's record buffer, and confirmed with lay.sameKey; in lossy
// mode the hash match is final. Safe for concurrent use during
// expansion.
func (sp *spillStore) lookup(lay *rowLayout, in *interner, h uint64, probe, rec []byte, lossy bool) (int32, bool, error) {
	if sp.count == 0 || !sp.bloom.has(h) {
		return 0, false, nil
	}
	lo := sort.Search(sp.count, func(i int) bool { return sp.entry(i).h >= h })
	for i := lo; i < sp.count; i++ {
		e := sp.entry(i)
		if e.h != h {
			break
		}
		if lossy {
			return e.node, true, nil
		}
		row, err := sp.read(e.node, rec)
		if err != nil {
			return 0, false, err
		}
		if lay.sameKey(in, probe, row) {
			return e.node, true, nil
		}
	}
	return 0, false, nil
}

// read reads sealed node j's record into rec, the caller's record
// buffer, and returns the row it holds once its checksum holds. Safe
// for concurrent use during expansion.
func (sp *spillStore) read(j int32, rec []byte) ([]byte, error) {
	if j < 0 || j >= sp.n {
		return nil, fmt.Errorf("verify: spill: node %d is not sealed", j)
	}
	rec = rec[:sp.rec]
	if _, err := sp.data.ReadAt(rec, int64(j)*int64(sp.rec)); err != nil {
		return nil, fmt.Errorf("verify: spill: record %d: %w: torn or corrupt spill file", j, err)
	}
	row := rec[:sp.rec-recSum]
	if fnv32(row) != binary.LittleEndian.Uint32(rec[len(row):]) {
		return nil, fmt.Errorf("verify: spill: record %d fails its checksum: torn or corrupt spill file", j)
	}
	return row, nil
}

// fnv32 is FNV-1a 32-bit: the per-record integrity check. A torn write
// (crash, full disk, concurrent truncation) must surface as an error,
// never as a silently misread state.
func fnv32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// bloomFilter is a standard k-probe Bloom filter over 64-bit state
// hashes, double-hashed from the one value. No false negatives: has()
// is false only if add() was never called for the hash, so the filter
// can only skip disk probes that would have missed.
type bloomFilter struct {
	words []uint64
	mask  uint64
}

const bloomProbes = 6

// newBloom sizes the filter for the given entry capacity at ~12 bits
// per entry, rounded up to a power of two.
func newBloom(capacity int) bloomFilter {
	bits := 1 << 10
	for bits < capacity*12 {
		bits <<= 1
	}
	return bloomFilter{words: make([]uint64, bits/64), mask: uint64(bits - 1)}
}

// dense reports whether the filter is past its design load for n
// entries and should be rebuilt larger.
func (b *bloomFilter) dense(n int) bool {
	return uint64(n)*12 > uint64(len(b.words))*64
}

func bloomMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (b *bloomFilter) add(h uint64) {
	h1, h2 := h, bloomMix(h)|1
	for i := 0; i < bloomProbes; i++ {
		pos := (h1 + uint64(i)*h2) & b.mask
		b.words[pos>>6] |= 1 << (pos & 63)
	}
}

func (b *bloomFilter) has(h uint64) bool {
	h1, h2 := h, bloomMix(h)|1
	for i := 0; i < bloomProbes; i++ {
		pos := (h1 + uint64(i)*h2) & b.mask
		if b.words[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}
