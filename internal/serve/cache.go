package serve

import (
	"container/list"
	"sync"
)

// resultCache is the content-addressed result store: completed response
// bodies keyed by request Key, bounded by an LRU policy on entry count
// and total body bytes, optionally backed by a persistent disk tier
// (diskCache). A RAM miss falls through to disk and promotes the body
// back into the LRU, so repeat queries survive both eviction and
// daemon restarts. Bodies are immutable once inserted — readers get
// the stored slice, never a copy, and must not mutate it.
//
// A second index maps request digests to the same entries. Each entry
// carries the digest of the last request that reached it, and an
// evicted entry takes its digest along, so the index never holds more
// than maxEntries digests and never names a body the LRU dropped. It
// lives in RAM only: the disk tier is keyed by Key alone.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used
	byKey      map[Key]*list.Element
	byDigest   map[reqDigest]*list.Element
	bytes      int64
	disk       *diskCache // nil when no CacheDir is configured

	hits, digestHits, misses, evictions int64
}

type cacheEntry struct {
	key    Key
	digest reqDigest // of the last request that reached the entry
	body   []byte
}

func newResultCache(maxEntries int, maxBytes int64, disk *diskCache) *resultCache {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		byKey:      make(map[Key]*list.Element),
		byDigest:   make(map[reqDigest]*list.Element),
		disk:       disk,
	}
}

// getDigest returns the body of the entry the request digest d last
// reached, refreshing its recency. A hit counts as a cache hit; a miss
// counts nothing, because the key lookup that follows counts it.
func (c *resultCache) getDigest(d reqDigest) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byDigest[d]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	c.digestHits++
	return el.Value.(*cacheEntry).body, true
}

// get returns the cached body for the key, refreshing its recency and
// pointing the entry's digest at d. On a RAM miss it consults the disk
// tier, promoting a hit into the LRU.
func (c *resultCache) get(k Key, d reqDigest) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		c.setDigestLocked(el, d)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*cacheEntry).body, true
	}
	c.misses++
	c.mu.Unlock()
	if c.disk != nil {
		if body, ok := c.disk.get(k); ok {
			c.insert(k, d, body)
			return body, true
		}
	}
	return nil, false
}

// put inserts a completed body, reached by the request digest d,
// writing through to the disk tier. A body larger than the RAM byte
// bound skips the LRU (it would evict everything for one entry) but
// still persists.
func (c *resultCache) put(k Key, d reqDigest, body []byte) {
	if int64(len(body)) <= c.maxBytes {
		c.insert(k, d, body)
	}
	if c.disk != nil {
		c.disk.put(k, body)
	}
}

// insert adds a body to the RAM tier only, with d as its digest,
// evicting least-recently-used entries past either bound.
func (c *resultCache) insert(k Key, d reqDigest, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		// Idempotent by construction: the body is a pure function of the
		// key, so a racing duplicate insert carries identical bytes.
		c.ll.MoveToFront(el)
		c.setDigestLocked(el, d)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: k, body: body})
	c.byKey[k] = el
	c.setDigestLocked(el, d)
	c.bytes += int64(len(body))
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		last := c.ll.Back()
		if last == nil {
			break
		}
		ent := last.Value.(*cacheEntry)
		c.ll.Remove(last)
		delete(c.byKey, ent.key)
		c.dropDigestLocked(last)
		c.bytes -= int64(len(ent.body))
		c.evictions++
	}
}

// setDigestLocked points the entry's digest at d, dropping the one it
// held. A digest determines its key, so d can have reached no other
// entry. Callers hold c.mu.
func (c *resultCache) setDigestLocked(el *list.Element, d reqDigest) {
	c.dropDigestLocked(el)
	el.Value.(*cacheEntry).digest = d
	c.byDigest[d] = el
}

// dropDigestLocked removes the entry's digest from the index, if it
// has one. Callers hold c.mu.
func (c *resultCache) dropDigestLocked(el *list.Element) {
	if d := el.Value.(*cacheEntry).digest; c.byDigest[d] == el {
		delete(c.byDigest, d)
	}
}

// cacheStats is a snapshot of the cache's size and counters.
type cacheStats struct {
	entries                                    int
	bytes, hits, digestHits, misses, evictions int64
}

// stats snapshots the counters.
func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		entries: c.ll.Len(), bytes: c.bytes,
		hits: c.hits, digestHits: c.digestHits, misses: c.misses, evictions: c.evictions,
	}
}
