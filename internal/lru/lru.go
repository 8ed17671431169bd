// Package lru provides a small, mutex-guarded, fixed-capacity LRU
// cache. Read-mostly index structures (the UV-index grid, the helper
// R-tree) use it to memoize decoded leaf pages for skewed query
// streams. It never invalidates: those structures are copy-on-write, so
// they key entries by immutable node identity, and entries for
// replaced nodes simply age out.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a fixed-capacity LRU map from K to V, safe for concurrent
// use.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int
	evictions int64
	order     *list.List          // front = most recently used
	entries   map[K]*list.Element // key → element; element value is *entry[K, V]
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding up to capacity entries. Capacity ≤ 0
// returns nil; a nil *Cache is valid and caches nothing.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		return nil
	}
	return &Cache[K, V]{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[K]*list.Element, capacity),
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get returns the value cached under key, if present.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key, evicting the least recently used entry when
// full.
func (c *Cache[K, V]) Put(key K, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	if len(c.entries) >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[K, V]).key)
		c.evictions++
	}
	c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
}

// Evictions returns the number of entries pushed out by capacity
// pressure since creation.
func (c *Cache[K, V]) Evictions() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
