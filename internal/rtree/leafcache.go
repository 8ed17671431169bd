package rtree

import (
	"sync/atomic"

	"uvdiagram/internal/lru"
)

// LeafCache is a small LRU cache of decoded leaf items, keyed by leaf
// node — the R-tree counterpart of the UV-index leaf cache. The
// branch-and-prune traversals visit (and re-decode) the same leaf pages
// for every nearby query point, so batch engines running many lookups
// share one cache. It is safe for concurrent readers. Correctness
// under mutation comes from copy-on-write: a mutation replaces every
// node it changes, so a cached tuple list keyed by node identity can
// never go stale — entries for replaced nodes simply stop being looked
// up and age out, while unchanged leaves stay warm across mutations. A
// nil cache is valid and disables caching.
type LeafCache struct {
	c *lru.Cache[*node, []Item]
	// hits/misses feed the server's buffer-pool gauges, mirroring the
	// UV-index leaf cache's accounting.
	hits   atomic.Int64
	misses atomic.Int64
}

// NewLeafCache returns a cache holding up to capacity leaves
// (capacity ≤ 0 yields a nil cache).
func NewLeafCache(capacity int) *LeafCache {
	c := lru.New[*node, []Item](capacity)
	if c == nil {
		return nil
	}
	return &LeafCache{c: c}
}

// Len returns the number of cached leaves.
func (c *LeafCache) Len() int {
	if c == nil {
		return 0
	}
	return c.c.Len()
}

// Stats returns the cache's cumulative hit and miss counts (zero for a
// nil cache).
func (c *LeafCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns how many entries capacity pressure has pushed out
// (zero for a nil cache).
func (c *LeafCache) Evictions() int64 {
	if c == nil {
		return 0
	}
	return c.c.Evictions()
}

// readLeafCached is readLeaf through an optional cache. Cache hits
// skip the page read (and its I/O accounting) and the decode; the
// returned slice is shared and must be treated as read-only.
func (t *Tree) readLeafCached(n *node, cache *LeafCache) []Item {
	if cache == nil {
		return t.readLeaf(n)
	}
	if items, ok := cache.c.Get(n); ok {
		cache.hits.Add(1)
		return items
	}
	cache.misses.Add(1)
	items := t.readLeaf(n)
	cache.c.Put(n, items)
	return items
}
