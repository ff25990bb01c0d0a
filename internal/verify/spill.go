package verify

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// This file is the cold tier of the dedup store: a disk spill for
// sealed BFS layers, so the hot states' rows stay within
// Config.MemBudget whatever the state count (each state's node
// bookkeeping stays in RAM). The layout follows the external-memory
// lineage of explicit-state checkers (SPIN's disk modes): per shard,
// one append-only data file of checksummed state records plus a sorted
// immutable hash index that is rewritten by a sequential merge whenever
// layers seal, with an in-RAM Bloom filter in front so the
// overwhelmingly common miss never touches disk.
//
// Soundness contract: in exact mode a hash hit in the index is only a
// candidate — the record, which is the sealed state's key, is read back
// and compared byte-for-byte with the probe's key, the same equality
// the hot tier confirms on rows. The Bloom filter has no false negatives, so
// it can only suppress reads that would have missed anyway. In lossy
// mode (Config.Lossy) the 64-bit hash match itself is accepted and the
// verdict carries an omission probability, SPIN-bitstate style.
//
// Everything here runs under the searcher's phase discipline: writes
// (add, finishBatch) happen only in the sequential seal phase between
// BFS layers; during parallel expansion the store is frozen and
// lookup/readState may run concurrently — they touch only the
// immutable index mapping, the read-only base cache, and pread on the
// data file.

const (
	// spillShards splits the spill store by the hash's low bits. Each
	// shard costs file descriptors and an index mapping, and disk shards
	// only need to bound merge sizes.
	spillShards = 16
	// spillIdxEntry is one index entry: hash u64 | offset u64 | node u32.
	spillIdxEntry = 20
	// spillMaxRecord bounds a record body; a corrupt length field must
	// fail cleanly, not allocate gigabytes.
	spillMaxRecord = 1 << 24
	// Record kinds.
	recFull  = 0
	recDelta = 1
)

// spillRec locates one sealed node's record: shard in the low 4 bits,
// data-file offset above. Sealed nodes are a contiguous prefix of the
// node array, so a plain slice indexed by node id maps every sealed
// node to its record.
type spillRec int64

func packRec(shard int, off int64) spillRec { return spillRec(off<<4 | int64(shard)) }
func (r spillRec) shard() int               { return int(r & (spillShards - 1)) }
func (r spillRec) off() int64               { return int64(r) >> 4 }

type idxEnt struct {
	h    uint64
	off  int64
	node int32
}

type spillShard struct {
	data *os.File
	w    *bufio.Writer
	size int64
	// pend holds this batch's index entries until finishBatch merges
	// them into the sorted index.
	pend []idxEnt
	// idx is the current index generation: spillIdxEntry-byte records
	// sorted by (hash, node), memory-mapped read-only.
	idx     mmapRegion
	idxPath string
	gen     int
	count   int
	bloom   bloomFilter
	// bases caches every per-(layer,shard) delta base key by its
	// data offset: one entry per layer, read-only outside the seal
	// phase. Misses (possible only if the cache were ever bounded) fall
	// back to a disk read.
	bases     map[int64][]byte
	baseLayer int
	baseOff   int64
	base      []byte
}

// spillStore is the cold tier: spillShards shards under one scratch
// directory, plus the node→record map for re-expanding sealed states.
type spillStore struct {
	dir    string
	shards [spillShards]*spillShard
	locs   []spillRec
	bytes  int64
	recBuf []byte
}

func newSpillStore(dir string) (*spillStore, error) {
	sp := &spillStore{dir: dir}
	for i := range sp.shards {
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("shard%02d.dat", i)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			sp.close()
			return nil, fmt.Errorf("verify: spill: %w", err)
		}
		sp.shards[i] = &spillShard{
			data:      f,
			w:         bufio.NewWriterSize(f, 1<<16),
			bloom:     newBloom(1 << 12),
			bases:     make(map[int64][]byte),
			baseLayer: -1,
		}
	}
	return sp, nil
}

// close releases every file and removes the scratch directory. Safe on
// a partially constructed store.
func (sp *spillStore) close() {
	for _, sh := range sp.shards {
		if sh == nil {
			continue
		}
		sh.idx.unmap()
		if sh.data != nil {
			sh.data.Close()
		}
	}
	os.RemoveAll(sp.dir)
}

// states reports how many sealed states the store holds.
func (sp *spillStore) states() int { return len(sp.locs) }

// add seals one node: its state key is appended to the node's shard as
// a checksummed record, delta-compressed against the shard's current
// per-layer base. Nodes must be added in node-id order — the sealed set
// stays a contiguous prefix. Only called from the sequential seal
// phase.
func (sp *spillStore) add(h uint64, nodeID int32, layer int, key []byte) error {
	if int(nodeID) != len(sp.locs) {
		return fmt.Errorf("verify: spill: sealing node %d out of order (next is %d)", nodeID, len(sp.locs))
	}
	si := int(h & (spillShards - 1))
	sh := sp.shards[si]
	off := sh.size

	body := sp.recBuf[:0]
	if sh.baseLayer != layer {
		// First record of this layer in this shard: written full, and it
		// becomes the delta base for the rest of the layer.
		body = append(body, recFull)
		body = append(body, key...)
		sh.baseLayer = layer
		sh.baseOff = off
		sh.base = append(sh.base[:0], key...)
		sh.bases[off] = append([]byte(nil), key...)
	} else {
		prefix := commonPrefix(key, sh.base)
		suffix := commonSuffix(key[prefix:], sh.base[prefix:])
		body = append(body, recDelta)
		body = binary.AppendUvarint(body, uint64(sh.baseOff))
		body = binary.AppendUvarint(body, uint64(prefix))
		body = binary.AppendUvarint(body, uint64(suffix))
		body = append(body, key[prefix:len(key)-suffix]...)
	}
	sp.recBuf = body[:0]

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], fnv32(body))
	if _, err := sh.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("verify: spill write: %w", err)
	}
	if _, err := sh.w.Write(body); err != nil {
		return fmt.Errorf("verify: spill write: %w", err)
	}
	sh.size += int64(8 + len(body))
	sp.bytes += int64(8 + len(body))
	sh.pend = append(sh.pend, idxEnt{h: h, off: off, node: nodeID})
	sp.locs = append(sp.locs, packRec(si, off))
	return nil
}

// finishBatch flushes every shard's data file and merges its pending
// entries into a new sorted index generation, growing the Bloom filter
// when it gets dense. Runs once per seal phase, sequentially.
func (sp *spillStore) finishBatch() error {
	for si, sh := range sp.shards {
		if len(sh.pend) == 0 {
			continue
		}
		if err := sh.w.Flush(); err != nil {
			return fmt.Errorf("verify: spill flush: %w", err)
		}
		sort.Slice(sh.pend, func(i, j int) bool {
			if sh.pend[i].h != sh.pend[j].h {
				return sh.pend[i].h < sh.pend[j].h
			}
			return sh.pend[i].node < sh.pend[j].node
		})
		if err := sh.mergeIndex(sp.dir, si); err != nil {
			return err
		}
		total := sh.count
		if sh.bloom.dense(total) {
			sh.bloom = newBloom(2 * total)
			for i := 0; i < total; i++ {
				sh.bloom.add(sh.entry(i).h)
			}
		} else {
			for _, e := range sh.pend {
				sh.bloom.add(e.h)
			}
		}
		sh.pend = sh.pend[:0]
	}
	return nil
}

// mergeIndex writes index generation gen+1 = merge(existing sorted
// index, sorted pend), maps it, and retires the old generation.
func (sh *spillShard) mergeIndex(dir string, si int) error {
	newPath := filepath.Join(dir, fmt.Sprintf("shard%02d.idx.%d", si, sh.gen+1))
	f, err := os.OpenFile(newPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("verify: spill index: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var ebuf [spillIdxEntry]byte
	put := func(e idxEnt) error {
		binary.LittleEndian.PutUint64(ebuf[0:], e.h)
		binary.LittleEndian.PutUint64(ebuf[8:], uint64(e.off))
		binary.LittleEndian.PutUint32(ebuf[16:], uint32(e.node))
		_, err := w.Write(ebuf[:])
		return err
	}
	i, j := 0, 0
	for i < sh.count || j < len(sh.pend) {
		var e idxEnt
		switch {
		case i >= sh.count:
			e = sh.pend[j]
			j++
		case j >= len(sh.pend):
			e = sh.entry(i)
			i++
		default:
			a, b := sh.entry(i), sh.pend[j]
			if a.h < b.h || (a.h == b.h && a.node < b.node) {
				e = a
				i++
			} else {
				e = b
				j++
			}
		}
		if err := put(e); err != nil {
			f.Close()
			return fmt.Errorf("verify: spill index: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("verify: spill index: %w", err)
	}
	newCount := sh.count + len(sh.pend)
	m, err := mapFile(f, int64(newCount)*spillIdxEntry)
	f.Close()
	if err != nil {
		return fmt.Errorf("verify: spill index map: %w", err)
	}
	sh.idx.unmap()
	if sh.idxPath != "" {
		os.Remove(sh.idxPath)
	}
	sh.idx, sh.idxPath, sh.count, sh.gen = m, newPath, newCount, sh.gen+1
	return nil
}

// entry decodes sorted index entry i from the mapped index.
func (sh *spillShard) entry(i int) idxEnt {
	b := sh.idx.data[i*spillIdxEntry:]
	return idxEnt{
		h:    binary.LittleEndian.Uint64(b[0:]),
		off:  int64(binary.LittleEndian.Uint64(b[8:])),
		node: int32(binary.LittleEndian.Uint32(b[16:])),
	}
}

// mayHold reports whether a state with hash h may be sealed: false
// means lookup would miss, so a caller can skip building the probe's
// key. Safe for concurrent use during expansion.
func (sp *spillStore) mayHold(h uint64) bool {
	sh := sp.shards[h&(spillShards-1)]
	return sh.count > 0 && sh.bloom.has(h)
}

// lookup probes the cold tier for a state with the given hash and key.
// In exact mode every same-hash entry's record is read back and
// byte-compared with the key; in lossy mode the hash match is final.
// Safe for concurrent use during expansion.
func (sp *spillStore) lookup(h uint64, key []byte, lossy bool) (int32, bool, error) {
	sh := sp.shards[h&(spillShards-1)]
	if sh.count == 0 || !sh.bloom.has(h) {
		return 0, false, nil
	}
	lo := sort.Search(sh.count, func(i int) bool { return sh.entry(i).h >= h })
	for i := lo; i < sh.count; i++ {
		e := sh.entry(i)
		if e.h != h {
			break
		}
		if lossy {
			return e.node, true, nil
		}
		rec, err := sh.readRecord(e.off, 0)
		if err != nil {
			return 0, false, err
		}
		if bytes.Equal(rec, key) {
			return e.node, true, nil
		}
	}
	return 0, false, nil
}

// readState reconstructs a sealed node's full state into st for
// re-expansion. Safe for concurrent use during expansion.
func (sp *spillStore) readState(m *machine, nodeID int32, st *state) error {
	if int(nodeID) >= len(sp.locs) {
		return fmt.Errorf("verify: spill: node %d is not sealed", nodeID)
	}
	loc := sp.locs[nodeID]
	key, err := sp.shards[loc.shard()].readRecord(loc.off(), 0)
	if err != nil {
		return err
	}
	return decodeState(m, key, st)
}

// readRecord reads and verifies the record at off, reconstructing a
// delta against its base, and returns the state key it holds. The key
// is freshly allocated (or aliases the base cache only via copy).
// depth guards against corrupt delta chains.
func (sh *spillShard) readRecord(off int64, depth int) ([]byte, error) {
	if depth > 1 {
		return nil, fmt.Errorf("verify: spill: delta record based on another delta (corrupt index)")
	}
	if off < 0 || off+8 > sh.size {
		return nil, fmt.Errorf("verify: spill: record offset %d outside data file (%d bytes): torn or corrupt spill file", off, sh.size)
	}
	var hdr [8]byte
	if _, err := sh.data.ReadAt(hdr[:], off); err != nil {
		return nil, fmt.Errorf("verify: spill read: %w", err)
	}
	blen := int64(binary.LittleEndian.Uint32(hdr[0:]))
	check := binary.LittleEndian.Uint32(hdr[4:])
	if blen > spillMaxRecord || off+8+blen > sh.size {
		return nil, fmt.Errorf("verify: spill: record at %d claims %d bytes past end of data file: torn or corrupt spill file", off, blen)
	}
	body := make([]byte, blen)
	if _, err := sh.data.ReadAt(body, off+8); err != nil {
		return nil, fmt.Errorf("verify: spill read: %w", err)
	}
	if fnv32(body) != check {
		return nil, fmt.Errorf("verify: spill: record at %d fails its checksum: torn or corrupt spill file", off)
	}
	if len(body) < 1 {
		return nil, fmt.Errorf("verify: spill: empty record body at %d", off)
	}
	kind, body := body[0], body[1:]
	switch kind {
	case recFull:
		return body, nil
	case recDelta:
		baseOff, n1 := binary.Uvarint(body)
		if n1 <= 0 {
			return nil, fmt.Errorf("verify: spill: corrupt delta base at %d", off)
		}
		prefix, n2 := binary.Uvarint(body[n1:])
		if n2 <= 0 {
			return nil, fmt.Errorf("verify: spill: corrupt delta prefix at %d", off)
		}
		suffix, n3 := binary.Uvarint(body[n1+n2:])
		if n3 <= 0 {
			return nil, fmt.Errorf("verify: spill: corrupt delta suffix at %d", off)
		}
		mid := body[n1+n2+n3:]
		base, ok := sh.bases[int64(baseOff)]
		if !ok {
			var err error
			if base, err = sh.readRecord(int64(baseOff), depth+1); err != nil {
				return nil, err
			}
		}
		if prefix+suffix > uint64(len(base)) || prefix+suffix > uint64(spillMaxRecord) {
			return nil, fmt.Errorf("verify: spill: delta at %d trims more than its base holds", off)
		}
		key := make([]byte, 0, int(prefix)+len(mid)+int(suffix))
		key = append(key, base[:prefix]...)
		key = append(key, mid...)
		return append(key, base[uint64(len(base))-suffix:]...), nil
	default:
		return nil, fmt.Errorf("verify: spill: unknown record kind %d at %d", kind, off)
	}
}

func commonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func commonSuffix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
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
