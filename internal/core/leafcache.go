package core

import (
	"sync/atomic"

	"uvdiagram/internal/lru"
	"uvdiagram/internal/pager"
)

// LeafCache is a small LRU cache of decoded leaf page lists, keyed by
// leaf node. Skewed query streams hit a handful of leaves over and over;
// caching the decoded tuples removes the simulated page reads and the
// decode work from the hot path of batch queries.
//
// The cache is safe for concurrent readers (batch workers share one
// instance). Correctness under mutation comes from copy-on-write: a
// live mutation replaces every leaf it changes with a fresh node, so a
// tuple list keyed by node identity can never go stale — entries for
// replaced leaves stop being looked up and age out of the LRU, while
// unchanged leaves stay warm across mutations.
type LeafCache struct {
	c *lru.Cache[*qnode, []pager.LeafTuple]
	// hits/misses feed the server's observability layer.
	hits   atomic.Int64
	misses atomic.Int64
}

// NewLeafCache returns a cache holding up to capacity leaves
// (capacity ≤ 0 yields a nil cache, i.e. caching disabled).
func NewLeafCache(capacity int) *LeafCache {
	c := lru.New[*qnode, []pager.LeafTuple](capacity)
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

// Evictions returns how many entries capacity pressure has pushed out —
// the buffer-pool sizing signal (a high rate means the working set
// exceeds the cache).
func (c *LeafCache) Evictions() int64 {
	if c == nil {
		return 0
	}
	return c.c.Evictions()
}

func (c *LeafCache) get(n *qnode) ([]pager.LeafTuple, bool) {
	if c == nil {
		return nil, false
	}
	tuples, ok := c.c.Get(n)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return tuples, ok
}

func (c *LeafCache) put(n *qnode, tuples []pager.LeafTuple) {
	if c == nil {
		return
	}
	c.c.Put(n, tuples)
}
