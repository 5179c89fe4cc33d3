package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFIFOOrder(t *testing.T) {
	q := newFIFO[int]()
	for i := 0; i < 100; i++ {
		q.push(i)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d, %v", i, v, ok)
		}
	}
}

func TestFIFOBlockingPop(t *testing.T) {
	q := newFIFO[string]()
	got := make(chan string, 1)
	go func() {
		v, _ := q.pop()
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("pop returned %q on empty queue", v)
	case <-time.After(10 * time.Millisecond):
	}
	q.push("hello")
	select {
	case v := <-got:
		if v != "hello" {
			t.Errorf("got %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("pop never woke")
	}
}

func TestFIFOCloseDrains(t *testing.T) {
	q := newFIFO[int]()
	q.push(1)
	q.push(2)
	q.close()
	if v, ok := q.pop(); !ok || v != 1 {
		t.Fatalf("pop after close = %d, %v", v, ok)
	}
	if v, ok := q.pop(); !ok || v != 2 {
		t.Fatalf("pop after close = %d, %v", v, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on drained closed queue reported ok")
	}
	// Pushing to a closed queue is a no-op.
	q.push(3)
	if _, ok := q.tryPop(); ok {
		t.Fatal("push after close stored an item")
	}
}

func TestFIFOCloseWakesWaiters(t *testing.T) {
	q := newFIFO[int]()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.pop()
		}()
	}
	time.Sleep(5 * time.Millisecond)
	q.close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("close did not wake blocked poppers")
	}
}

// TestFIFOPopBatchLeavesWaitersAShare: with poppers blocked in popBatch,
// a batch takes only its fair share of the backlog, so a pool worker
// cannot claim admissions idle workers could run (and strand them behind
// a flow that blocks); with nobody waiting it takes a full batch.
func TestFIFOPopBatchLeavesWaitersAShare(t *testing.T) {
	q := newFIFO[int]()
	for i := 0; i < 8; i++ {
		q.push(i)
	}
	buf := make([]int, poolBatch)
	q.mu.Lock()
	q.waiting = 3 // as if three workers sat in cond.Wait
	q.mu.Unlock()
	if n, _ := q.popBatch(buf); n != 2 {
		t.Fatalf("popBatch with 3 waiters took %d of 8, want 2", n)
	}
	q.mu.Lock()
	q.waiting = 0
	q.mu.Unlock()
	if n, _ := q.popBatch(buf); n != 6 || buf[0] != 2 {
		t.Fatalf("popBatch with no waiters took %d starting at %d, want 6 starting at 2", n, buf[0])
	}
}

func TestFIFOTryPopAndLen(t *testing.T) {
	q := newFIFO[int]()
	if _, ok := q.tryPop(); ok {
		t.Fatal("tryPop on empty queue")
	}
	q.push(7)
	if q.len() != 1 {
		t.Errorf("len = %d", q.len())
	}
	if v, ok := q.tryPop(); !ok || v != 7 {
		t.Fatalf("tryPop = %d, %v", v, ok)
	}
	if q.len() != 0 {
		t.Errorf("len = %d", q.len())
	}
}

func TestFIFOCompaction(t *testing.T) {
	q := newFIFO[int]()
	// Push and pop enough to trigger the compaction path repeatedly.
	for round := 0; round < 5; round++ {
		for i := 0; i < 2000; i++ {
			q.push(i)
		}
		for i := 0; i < 2000; i++ {
			v, ok := q.pop()
			if !ok || v != i {
				t.Fatalf("round %d: pop %d = %d, %v", round, i, v, ok)
			}
		}
	}
	if q.len() != 0 {
		t.Errorf("len = %d after full drain", q.len())
	}
}

func TestFIFOConcurrentProducersConsumers(t *testing.T) {
	q := newFIFO[int]()
	const producers, items = 8, 500
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				q.push(i)
			}
		}()
	}
	var cg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				if _, ok := q.pop(); !ok {
					return
				}
				consumed.Add(1)
			}
		}()
	}
	wg.Wait()
	for q.len() > 0 {
		time.Sleep(time.Millisecond)
	}
	q.close()
	cg.Wait()
	if consumed.Load() != producers*items {
		t.Errorf("consumed = %d, want %d", consumed.Load(), producers*items)
	}
}

func TestIntervalSourceCadence(t *testing.T) {
	src := IntervalSource(20 * time.Millisecond)
	fl := &Flow{Ctx: t.Context()}
	start := time.Now()
	for i := 1; i <= 3; i++ {
		rec, err := src(fl)
		if err != nil {
			t.Fatal(err)
		}
		if rec[0].(int) != i {
			t.Errorf("tick %d = %v", i, rec[0])
		}
	}
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Errorf("3 ticks in %v, want >= 60ms", elapsed)
	}
}

func TestIntervalSourceResyncAfterStall(t *testing.T) {
	src := IntervalSource(10 * time.Millisecond)
	fl := &Flow{Ctx: t.Context()}
	if _, err := src(fl); err != nil {
		t.Fatal(err)
	}
	// Miss several intervals, then expect a single immediate fire (no
	// burst) and subsequent normal pacing.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if _, err := src(fl); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Millisecond {
		t.Error("late tick should fire immediately")
	}
	start = time.Now()
	if _, err := src(fl); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 8*time.Millisecond {
		t.Error("post-resync tick fired in a burst")
	}
}
