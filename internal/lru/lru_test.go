package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	// "a" was just used; inserting "c" must evict "b".
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry not evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("recently used entry evicted: %d, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestPutOverwrites(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("a = %d after overwrite", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache[int, int]
	if c := New[int, int](0); c != nil {
		t.Fatal("capacity 0 should yield a nil cache")
	}
	c.Put(1, 1) // must not panic
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has length")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int, int](8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (w*31 + i) % 16
				if v, ok := c.Get(k); ok && v != k*10 {
					t.Errorf("key %d = %d", k, v)
					return
				}
				c.Put(k, k*10)
			}
		}(w)
	}
	wg.Wait()
}

func TestEvictionOrderUnderChurn(t *testing.T) {
	c := New[string, int](3)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	for i := 7; i < 10; i++ {
		if v, ok := c.Get(fmt.Sprintf("k%d", i)); !ok || v != i {
			t.Fatalf("k%d = %d, %v", i, v, ok)
		}
	}
}
