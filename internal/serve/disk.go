package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// diskCache is the persistent tier behind the in-memory result LRU:
// one file per cache key under a configured directory, so a repeat
// verify survives daemon restarts and is answered from disk in
// milliseconds instead of re-exploring the state space. It is sound
// for the same reason the RAM cache is: response bodies are pure
// functions of the content-addressed key (worker counts, memory
// budgets and timestamps are all excluded or key-relevant), so a
// stored body IS the body a fresh run would produce.
//
// Each file carries a magic string and the sha256 of the body; a file
// that fails either check (torn write, bit rot, truncation) is
// removed and treated as a miss — corruption can cost a recompute,
// never a wrong answer.
type diskCache struct {
	dir string

	hits, misses, writes, errors atomic.Int64
}

// diskMagic versions the file format AND the key space: bump the
// request key frame (request.go) whenever response shapes change, so
// stale bodies from older builds can never be served.
const diskMagic = "IFSYNDC1"

// newDiskCache opens the cache directory, creating it if need be, and
// deletes the temp files that puts of a killed daemon left behind,
// which nothing else would ever remove. A second daemon sharing the
// directory loses at most its one in-flight put, whose failed rename
// is counted and dropped like any other write failure.
func newDiskCache(dir string) (*diskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache dir: %w", err)
	}
	for _, e := range ents {
		if n := e.Name(); strings.HasPrefix(n, "put-") && strings.HasSuffix(n, ".tmp") {
			os.Remove(filepath.Join(dir, n))
		}
	}
	return &diskCache{dir: dir}, nil
}

func (d *diskCache) path(k Key) string {
	return filepath.Join(d.dir, k.String()+".res")
}

// get loads and verifies the body stored for k. Any malformed file is
// deleted and reported as a miss.
func (d *diskCache) get(k Key) ([]byte, bool) {
	raw, err := os.ReadFile(d.path(k))
	if err != nil {
		d.misses.Add(1)
		return nil, false
	}
	if len(raw) < len(diskMagic)+sha256.Size || string(raw[:len(diskMagic)]) != diskMagic {
		d.corrupt(k)
		return nil, false
	}
	sum := raw[len(diskMagic) : len(diskMagic)+sha256.Size]
	body := raw[len(diskMagic)+sha256.Size:]
	want := sha256.Sum256(body)
	if !bytes.Equal(sum, want[:]) {
		d.corrupt(k)
		return nil, false
	}
	d.hits.Add(1)
	return body, true
}

func (d *diskCache) corrupt(k Key) {
	os.Remove(d.path(k))
	d.errors.Add(1)
	d.misses.Add(1)
}

// put writes the body through atomically: temp file in the same
// directory, then rename, so a crashed daemon leaves either the old
// entry, the new entry, or a stray .tmp that the next newDiskCache
// deletes — never a half-written readable file. Write failures are
// counted and dropped; the disk tier degrades to the RAM tier, it
// never fails a request.
func (d *diskCache) put(k Key, body []byte) {
	f, err := os.CreateTemp(d.dir, "put-*.tmp")
	if err != nil {
		d.errors.Add(1)
		return
	}
	sum := sha256.Sum256(body)
	_, err = f.Write([]byte(diskMagic))
	if err == nil {
		_, err = f.Write(sum[:])
	}
	if err == nil {
		_, err = f.Write(body)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), d.path(k))
	}
	if err != nil {
		os.Remove(f.Name())
		d.errors.Add(1)
		return
	}
	d.writes.Add(1)
}

// stats snapshots the counters.
func (d *diskCache) stats() (hits, misses, writes, errs int64) {
	return d.hits.Load(), d.misses.Load(), d.writes.Load(), d.errors.Load()
}
