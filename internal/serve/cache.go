package serve

// Content-addressed result cache. The simulator is a deterministic
// function of (config, seed, schema version), so a canonical hash of
// that triple (internal/bench's CanonicalKey family) fully addresses a
// result document: repeated submissions are served the exact bytes the
// first run produced. Two tiers: a bounded in-memory LRU for the hot
// set, and optionally the result store (internal/store), whose records
// are keyed by the same content address and survive restarts.

import (
	"container/list"
	"sync"

	"stacktrack/internal/store"
)

// Cache is a memory LRU over an optional result store, keyed by
// content address. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int // max in-memory entries; <= 0 disables the memory tier
	lru     *list.List
	entries map[string]*list.Element
	store   *store.Store // persistent tier; nil means memory only

	hits, misses, diskHits, evictions, diskErrors uint64
}

type cacheEntry struct {
	key string
	val []byte
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Entries   int    `json:"entries"`
	MaxSize   int    `json:"max_size"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	DiskHits  uint64 `json:"disk_hits"` // hits served from the result store
	Evictions uint64 `json:"evictions"`
	// DiskErrors counts failed store reads (I/O or CRC). Each is served
	// as a miss: the job recomputes and its fresh record becomes the
	// newest for the key.
	DiskErrors uint64 `json:"disk_errors,omitempty"`
}

// NewCache builds a cache holding up to maxEntries results in memory,
// falling back to st's newest record for a key on a memory miss. st may
// be nil (memory only).
func NewCache(maxEntries int, st *store.Store) *Cache {
	return &Cache{
		max:     maxEntries,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
		store:   st,
	}
}

// Get returns the cached bytes for key. Memory first; on a miss the
// store is consulted and a hit promoted back into memory. The returned
// slice must not be mutated (it is shared with the cache).
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).val, true
	}
	if c.store != nil {
		b, ok, err := c.store.Lookup(key)
		if err != nil {
			c.diskErrors++
		}
		if ok {
			c.hits++
			c.diskHits++
			c.putLocked(key, b)
			return b, true
		}
	}
	c.misses++
	return nil, false
}

// Put stores val under key in the memory tier, evicting least-recently-
// used entries beyond the size bound. Persisting is the store's job:
// the server archives every computed result.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val)
}

func (c *Cache) putLocked(key string, val []byte) {
	if c.max <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: val})
	for c.lru.Len() > c.max {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:    c.lru.Len(),
		MaxSize:    c.max,
		Hits:       c.hits,
		Misses:     c.misses,
		DiskHits:   c.diskHits,
		Evictions:  c.evictions,
		DiskErrors: c.diskErrors,
	}
}
