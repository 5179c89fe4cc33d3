package lfu

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestGetMissThenHit(t *testing.T) {
	c := New(1000)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", []byte("value"))
	v, ok := c.Get("a")
	if !ok || string(v) != "value" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestLFUEvictionOrder(t *testing.T) {
	c := New(30) // room for 3 ten-byte values
	pad := func(s string) []byte { return []byte(s + "123456789") }
	c.Put("a", pad("a"))
	c.Put("b", pad("b"))
	c.Put("c", pad("c"))
	// Release the Put references so everything is evictable.
	for _, k := range []string{"a", "b", "c"} {
		c.Release(k)
	}
	// Make "a" hot, "b" warm, "c" cold.
	for i := 0; i < 5; i++ {
		c.Get("a")
		c.Release("a")
	}
	c.Get("b")
	c.Release("b")
	// Insert "d": evicts "c" (lowest frequency).
	c.Put("d", pad("d"))
	c.Release("d")
	if c.Contains("c") {
		t.Error("least-frequently-used entry not evicted")
	}
	for _, k := range []string{"a", "b", "d"} {
		if !c.Contains(k) {
			t.Errorf("%q evicted out of order", k)
		}
	}
}

func TestReferencedEntriesNotEvicted(t *testing.T) {
	c := New(20) // room for 2
	pad := func(s string) []byte { return []byte(s + "123456789") }
	c.Put("a", pad("a")) // ref held (not released)
	c.Put("b", pad("b"))
	c.Release("b")
	// Inserting c can only evict b; a is referenced (the §2.5 zero
	// reference count eviction rule).
	c.Put("c", pad("c"))
	if !c.Contains("a") {
		t.Error("referenced entry was evicted")
	}
	if c.Contains("b") {
		t.Error("zero-ref entry should have been evicted")
	}
}

func TestAllReferencedOvercommits(t *testing.T) {
	c := New(20)
	pad := func(s string) []byte { return []byte(s + "123456789") }
	c.Put("a", pad("a"))
	c.Put("b", pad("b"))
	// Nothing evictable; Put still succeeds (overcommit) so the flow
	// can proceed.
	if !c.Put("c", pad("c")) {
		t.Error("insert with all entries referenced failed")
	}
	if c.Used() != 30 {
		t.Errorf("used = %d", c.Used())
	}
}

func TestDuplicatePutKeepsFirstValue(t *testing.T) {
	c := New(100)
	c.Put("k", []byte("first"))
	if c.Put("k", []byte("second")) {
		t.Error("duplicate put reported insert")
	}
	v, _ := c.Get("k")
	if string(v) != "first" {
		t.Errorf("value = %q", v)
	}
}

func TestReleaseClampsAtZero(t *testing.T) {
	c := New(100)
	c.Put("k", []byte("v"))
	c.Release("k")
	c.Release("k") // extra release must not underflow
	c.Release("missing")
	// Entry should still be evictable exactly once.
	c.Put("big", make([]byte, 100))
	if c.Contains("k") {
		t.Error("k should have been evicted")
	}
}

func TestInsertionOrderTiebreak(t *testing.T) {
	c := New(20)
	pad := func(s string) []byte { return []byte(s + "123456789") }
	c.Put("old", pad("o"))
	c.Release("old")
	c.Put("new", pad("n"))
	c.Release("new")
	// Equal frequency: evict the older insertion.
	c.Put("x", pad("x"))
	if c.Contains("old") {
		t.Error("tie should evict the older entry")
	}
	if !c.Contains("new") {
		t.Error("newer entry evicted on tie")
	}
}

func TestStatsAndLen(t *testing.T) {
	c := New(1000)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	if c.Used() != 2 {
		t.Errorf("used = %d", c.Used())
	}
	_, _, ev := c.Stats()
	if ev != 0 {
		t.Errorf("evictions = %d", ev)
	}
}

// TestQuickUsedMatchesContents: after arbitrary operations, Used equals
// the sum of stored value lengths.
func TestQuickUsedMatchesContents(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(500)
		live := map[string]int{}
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%23)
			switch op % 3 {
			case 0:
				size := int(op%64) + 1
				if c.Put(key, make([]byte, size)) {
					live[key] = size
				}
				c.Release(key)
			case 1:
				if _, ok := c.Get(key); ok {
					c.Release(key)
				}
			case 2:
				c.Release(key)
			}
			// Rebuild live from Contains to account for evictions.
			for k := range live {
				if !c.Contains(k) {
					delete(live, k)
				}
			}
		}
		var want int64
		for _, sz := range live {
			want += int64(sz)
		}
		return c.Used() == want && c.Len() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLockedCacheConcurrent(t *testing.T) {
	l := NewLocked(10000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%17)
				if _, ok := l.Get(key); ok {
					l.Release(key)
				} else {
					l.Put(key, []byte(key))
					l.Release(key)
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, _ := l.Stats()
	if hits+misses != 8*200 {
		t.Errorf("hits+misses = %d, want 1600", hits+misses)
	}
}

// TestPutEvictZeroAllocs: a cache that turns its contents over — every
// Put evicting, past a pinned entry it must skip — reuses the evicted
// entries, so steady-state inserts allocate nothing.
func TestPutEvictZeroAllocs(t *testing.T) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("/k%d", i)
	}
	val := make([]byte, 10)
	c := New(int64(8 * len(val))) // room for 8 of the 64 keys
	c.Put("/pinned", val)         // never released: least used, yet unevictable
	i := 0
	put := func() {
		k := keys[i%len(keys)]
		i++
		if _, ok := c.Get(k); !ok {
			c.Put(k, val)
		}
		c.Release(k)
	}
	for range keys {
		put()
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
		t.Errorf("Put with eviction allocates %v per insert", allocs)
	}
	if _, _, ev := c.Stats(); ev < 1000 {
		t.Fatalf("only %d evictions: the cache did not turn over", ev)
	}
	if !c.Contains("/pinned") {
		t.Fatal("the referenced entry was evicted")
	}
}
