// Package lfu implements the image server's cache (§2, §2.5): a
// least-frequently-used replacement cache with reference counts.
//
// The paper's protocol is three operations under one atomicity
// constraint: CheckCache looks an item up and increments its reference
// count on a hit; StoreInCache inserts a new item, evicting the
// least-frequently-used entry whose reference count is zero; Complete
// decrements the reference count when the flow finishes with the item.
// The cache itself is deliberately unsynchronized — mutual exclusion is
// the Flux program's job, which is exactly what the paper's cache
// constraint demonstrates. A Locked wrapper is provided for non-Flux use.
package lfu

import (
	"container/heap"
	"sync"
	"sync/atomic"
)

// Entry is one cached item.
type entry struct {
	key   string
	value []byte
	freq  uint64 // access count for LFU ranking
	refs  int    // in-flight flows using the value
	seq   uint64 // insertion tiebreak: older evicts first
	index int    // heap index, -1 when not in heap
}

// Cache is an LFU cache with reference counts, bounded by total byte
// size. Not safe for concurrent use; see Locked.
type Cache struct {
	capacity int64
	used     int64
	items    map[string]*entry
	evict    evictHeap
	seq      uint64

	// free holds evicted entries for the next Put to reuse, and skipped
	// is evictOne's scratch list of referenced entries, so a cache that
	// turns over its contents allocates nothing per insert.
	free    []*entry
	skipped []*entry

	// Counters are atomic so Stats can be sampled from a monitoring
	// goroutine while flows mutate the cache under the Flux constraint.
	hits, misses, evictions atomic.Uint64
}

// New returns a cache bounded to capacity bytes of values.
func New(capacity int64) *Cache {
	return &Cache{capacity: capacity, items: make(map[string]*entry)}
}

// Get looks up a key; on a hit it bumps the frequency and takes a
// reference that the caller must release with Release.
func (c *Cache) Get(key string) (value []byte, ok bool) {
	e, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	e.freq++
	e.refs++
	if e.index >= 0 {
		heap.Fix(&c.evict, e.index)
	}
	return e.value, true
}

// Contains reports presence without touching frequency or references.
func (c *Cache) Contains(key string) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts a value with one reference already held by the caller
// (the inserting flow is about to use it). It evicts least-frequently
// used zero-reference entries as needed. If the value cannot fit even
// after evicting everything evictable, it is still stored (the cache
// temporarily overcommits rather than thrash); inserted reports whether
// the key was newly added. The cache keeps key, so it must not be a
// view of a buffer the caller reuses.
func (c *Cache) Put(key string, value []byte) (inserted bool) {
	if e, ok := c.items[key]; ok {
		// Concurrent flows can race to fill the same slot between
		// CheckCache and StoreInCache; keep the first value, count a
		// use of it.
		e.freq++
		e.refs++
		return false
	}
	need := int64(len(value))
	for c.used+need > c.capacity {
		if !c.evictOne() {
			break
		}
	}
	c.seq++
	var e *entry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		e = new(entry)
	}
	*e = entry{key: key, value: value, freq: 1, refs: 1, seq: c.seq, index: -1}
	c.items[key] = e
	c.used += need
	heap.Push(&c.evict, e)
	return true
}

// Release decrements a key's reference count (the image server's
// Complete node). Releasing an absent key is a no-op; releasing below
// zero clamps, so a buggy caller cannot wedge eviction.
func (c *Cache) Release(key string) {
	if e, ok := c.items[key]; ok && e.refs > 0 {
		e.refs--
	}
}

// evictOne removes the least-frequently-used zero-reference entry,
// reporting false when every entry is referenced.
func (c *Cache) evictOne() bool {
	// Pop entries until one is evictable; re-push the referenced ones.
	evicted := false
	for c.evict.Len() > 0 {
		e := heap.Pop(&c.evict).(*entry)
		if e.refs > 0 {
			c.skipped = append(c.skipped, e)
			continue
		}
		delete(c.items, e.key)
		c.used -= int64(len(e.value))
		c.evictions.Add(1)
		*e = entry{}
		c.free = append(c.free, e)
		evicted = true
		break
	}
	for i, e := range c.skipped {
		heap.Push(&c.evict, e)
		c.skipped[i] = nil
	}
	c.skipped = c.skipped[:0]
	return evicted
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.items) }

// Used returns the total bytes of cached values.
func (c *Cache) Used() int64 { return c.used }

// Stats returns hit/miss/eviction counters. Unlike the structural
// operations it is safe to call concurrently with them.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// evictHeap orders entries by (freq, seq) ascending: least frequently
// used first, oldest first on ties.
type evictHeap []*entry

func (h evictHeap) Len() int { return len(h) }
func (h evictHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].seq < h[j].seq
}
func (h evictHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *evictHeap) Push(x any) {
	e := x.(*entry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *evictHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Locked wraps a Cache with a mutex for callers outside a Flux atomicity
// constraint (the baseline servers use it).
type Locked struct {
	mu sync.Mutex
	c  *Cache
}

// NewLocked returns a mutex-guarded LFU cache.
func NewLocked(capacity int64) *Locked {
	return &Locked{c: New(capacity)}
}

// Get is the locked Cache.Get.
func (l *Locked) Get(key string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c.Get(key)
}

// Put is the locked Cache.Put.
func (l *Locked) Put(key string, value []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c.Put(key, value)
}

// Release is the locked Cache.Release.
func (l *Locked) Release(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.c.Release(key)
}

// Stats is the locked Cache.Stats.
func (l *Locked) Stats() (hits, misses, evictions uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c.Stats()
}
