package runtime

// Tests for the allocation-free hot path: chunked-queue batch pop, the
// closure-free fair lock fast path, flow pooling hygiene, and the dense
// vertex table the engines index by FlatNode.ID.

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lang/ast"
)

func TestFIFOPopBatchOrderAndBlocking(t *testing.T) {
	q := newFIFO[int]()
	for i := 0; i < 100; i++ {
		q.push(i)
	}
	buf := make([]int, 8)
	next := 0
	for next < 100 {
		n, ok := q.popBatch(buf)
		if !ok {
			t.Fatal("popBatch reported closed on a live queue")
		}
		for i := 0; i < n; i++ {
			if buf[i] != next {
				t.Fatalf("batch item = %d, want %d (FIFO violated)", buf[i], next)
			}
			next++
		}
	}
	// Batch pop must block until an item arrives…
	got := make(chan int, 1)
	go func() {
		n, _ := q.popBatch(buf)
		got <- n
	}()
	select {
	case n := <-got:
		t.Fatalf("popBatch returned %d items on an empty queue", n)
	case <-time.After(10 * time.Millisecond):
	}
	q.push(7)
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("popBatch = %d items, want 1", n)
		}
	case <-time.After(time.Second):
		t.Fatal("popBatch never woke")
	}
	// …and report closed-and-drained like pop.
	q.close()
	if n, ok := q.popBatch(buf); ok || n != 0 {
		t.Fatalf("popBatch on closed+drained = %d, %v", n, ok)
	}
}

func TestFIFOPopBatchSpansChunks(t *testing.T) {
	q := newFIFO[int]()
	total := 3*fifoChunkSize + 5
	for i := 0; i < total; i++ {
		q.push(i)
	}
	buf := make([]int, total)
	n, ok := q.popBatch(buf)
	if !ok || n != total {
		t.Fatalf("popBatch = %d, %v, want %d", n, ok, total)
	}
	for i := 0; i < total; i++ {
		if buf[i] != i {
			t.Fatalf("item %d = %d (chunk boundary corruption)", i, buf[i])
		}
	}
	if q.len() != 0 {
		t.Errorf("len = %d after full drain", q.len())
	}
}

// TestTryAcquireFairRefusesOvertake: the closure-free fast path must not
// barge past parked asynchronous waiters — that would reintroduce the
// starvation AcquireAsync exists to prevent.
func TestTryAcquireFairRefusesOvertake(t *testing.T) {
	m := NewLockManager()
	holder := &Flow{}
	m.Acquire(holder, writer("x"))

	victim := &Flow{}
	granted := make(chan struct{})
	if m.AcquireAsync(victim, writer("x"), func() { close(granted) }) {
		t.Fatal("victim acquired a held lock")
	}

	// Release: the victim is granted. A fair try by a latecomer while
	// the grant is pending must fail even at the instant the lock state
	// itself would allow it.
	late := &Flow{}
	rc := m.Resolve(writer("x"))
	if m.tryAcquireResolved(late, rc) {
		t.Fatal("fast path overtook a parked waiter")
	}
	m.ReleaseAll(holder)
	<-granted
	if m.tryAcquireResolved(late, rc) {
		t.Fatal("fast path acquired while the granted victim holds")
	}
	m.ReleaseAll(victim)
	if !m.tryAcquireResolved(late, rc) {
		t.Fatal("fast path failed on a free lock with no waiters")
	}
	// Reentrant reacquisition through the fast path.
	if !m.tryAcquireResolved(late, rc) {
		t.Fatal("fast path refused reentrant reacquisition")
	}
	m.ReleaseAll(late)
}

// TestResolvedSessionConstraintsScope: pre-resolved session constraints
// must still shard by the acquiring flow's session id.
func TestResolvedSessionConstraintsScope(t *testing.T) {
	m := NewLockManager()
	rc := m.Resolve(ast.Constraint{Name: "state", Mode: ast.Writer, Session: true})
	if rc.lock != nil {
		t.Fatal("session constraint pre-resolved to a single lock")
	}
	f1 := &Flow{Session: 1}
	f2 := &Flow{Session: 2}
	m.acquireResolved(f1, rc)
	if !m.tryAcquireResolved(f2, rc) {
		t.Fatal("different sessions contended on a session-scoped constraint")
	}
	f3 := &Flow{Session: 1}
	if m.tryAcquireResolved(f3, rc) {
		t.Fatal("same session did not contend")
	}
	m.ReleaseAll(f1)
	m.ReleaseAll(f2)
}

// TestServerReRunAfterPooling: flows recycled through the pool must not
// leak state (path register, session, held stack) between requests —
// two consecutive runs over one pool must both see clean flows.
func TestServerReRunAfterPooling(t *testing.T) {
	for _, kind := range []EngineKind{ThreadPerFlow, ThreadPool, EventDriven, WorkStealing} {
		t.Run(kind.String(), func(t *testing.T) {
			for round := 0; round < 2; round++ {
				s, got, mu := buildPipeline(t, kind, 40)
				if err := s.Run(context.Background()); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				mu.Lock()
				if len(*got) != 40 {
					t.Fatalf("round %d: sink saw %d records", round, len(*got))
				}
				mu.Unlock()
				st := s.Stats().Snapshot()
				if st.Completed != 40 || st.Errored != 0 || st.Dropped != 0 {
					t.Fatalf("round %d: stats = %+v", round, st)
				}
			}
		})
	}
}

// TestVertexTableDense verifies the invariant the engines rely on:
// flattening assigns IDs densely, so Nodes[v.ID] == v and the per-graph
// info table covers every vertex.
func TestVertexTableDense(t *testing.T) {
	p := compileSrc(t, dispatchSrc)
	for name, g := range p.Graphs {
		for i, v := range g.Nodes {
			if v.ID != i {
				t.Fatalf("graph %q: Nodes[%d].ID = %d", name, i, v.ID)
			}
		}
	}
	b := NewBindings().
		BindSource("Gen", counterSource(1)).
		BindPredicate("IsEven", func(v any) bool { return true }).
		BindNode("Evens", nopNode).
		BindNode("Odds", nopNode).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
	s, err := NewServer(p, b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for g, tbl := range s.tables {
		if len(tbl.info) != len(g.Nodes) {
			t.Fatalf("table covers %d of %d vertices", len(tbl.info), len(g.Nodes))
		}
		for _, v := range g.Nodes {
			vi := tbl.info[v.ID]
			switch v.Kind {
			case core.FlatExec:
				if vi.fn == nil {
					t.Fatalf("exec vertex %q has no bound function", v.Label())
				}
			case core.FlatBranch:
				if len(vi.cases) == 0 {
					t.Fatalf("branch vertex %q has no compiled cases", v.Label())
				}
			}
		}
	}
}

// TestPoolEngineBatchedAdmissionKeepsFIFO: with one worker, batched
// admission must preserve strict arrival order end to end.
func TestPoolEngineBatchedAdmissionKeepsFIFO(t *testing.T) {
	p := compileSrc(t, pipelineSrc)
	var mu sync.Mutex
	var got []int
	b := NewBindings().
		BindSource("Gen", counterSource(100)).
		BindNode("Double", nopNode).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
			mu.Lock()
			got = append(got, in[0].(int))
			mu.Unlock()
			return nil, nil
		})
	s, err := NewServer(p, b, Config{Kind: ThreadPool, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 100 {
		t.Fatalf("sink saw %d records", len(got))
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("admission order violated at %d: got %d", i, v)
		}
	}
}

// TestSourceRecordPoolCorrectness: sources drawing their records from
// the per-source pool (Flow.NewRecord) must deliver every value intact
// on every engine — no premature recycling, no cross-flow corruption —
// including through the thread pool's admission FIFO, where the record
// is queued before its flow exists.
func TestSourceRecordPoolCorrectness(t *testing.T) {
	for _, kind := range []EngineKind{ThreadPerFlow, ThreadPool, EventDriven, WorkStealing} {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, pipelineSrc)
			const total = 300
			var produced atomic.Int64
			var sum atomic.Int64
			b := NewBindings().
				BindSource("Gen", func(fl *Flow) (Record, error) {
					v := produced.Add(1)
					if v > total {
						return nil, ErrStop
					}
					rec := fl.NewRecord(1)
					rec[0] = int(v)
					return rec, nil
				}).
				BindNode("Double", func(fl *Flow, in Record) (Record, error) {
					return Record{in[0].(int) * 2}, nil
				}).
				BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
					sum.Add(int64(in[0].(int)))
					return nil, nil
				})
			s, err := NewServer(p, b, Config{Kind: kind, PoolSize: 4, Dispatchers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if want := int64(2 * total * (total + 1) / 2); sum.Load() != want {
				t.Errorf("sum = %d, want %d (pooled record corrupted or lost)", sum.Load(), want)
			}
			if got := s.Stats().Snapshot().Completed; got != total {
				t.Errorf("completed = %d, want %d", got, total)
			}
		})
	}
}

// TestSourceRecordPoolRecyclesAtTerminal: on a single dispatcher the
// flow runs inline to its terminal before the source polls again, so
// every NewRecord must get back the record the previous flow just
// freed — the per-source pool closes the last allocation in the
// request path. GC is disabled so sync.Pool cannot empty mid-test.
func TestSourceRecordPoolRecyclesAtTerminal(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes under -race; recycling is asserted in the normal build")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, kind := range []EngineKind{EventDriven, WorkStealing} {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, pipelineSrc)
			const total = 200
			var produced atomic.Int64
			backing := make(map[*any]int)
			b := NewBindings().
				BindSource("Gen", func(fl *Flow) (Record, error) {
					v := produced.Add(1)
					if v > total {
						return nil, ErrStop
					}
					rec := fl.NewRecord(1)
					backing[&rec[0]]++ // single dispatcher: no lock needed
					rec[0] = int(v)
					return rec, nil
				}).
				BindNode("Double", nopNode).
				BindNode("Sink", nopNode)
			s, err := NewServer(p, b, Config{Kind: kind, Dispatchers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			// Inline run-to-block means the previous record is freed
			// before the next poll; allow a little slack for the first
			// allocation and scheduling jitter, but 200 records must not
			// mean 200 arrays.
			if len(backing) > 8 {
				t.Errorf("%d distinct backing arrays for %d records; pool not recycling", len(backing), total)
			}
		})
	}
}

// TestEventEngineRunToBlockSingleTrip: a non-blocking flow must execute
// in one dispatcher activation — every node of a flow runs on the same
// goroutine with no interleaved queue trips.
func TestEventEngineRunToBlockSingleTrip(t *testing.T) {
	p := compileSrc(t, pipelineSrc)
	var active, maxActive atomic.Int64
	var violations atomic.Int64
	b := NewBindings().
		BindSource("Gen", counterSource(200)).
		BindNode("Double", func(fl *Flow, in Record) (Record, error) {
			if active.Add(1) > 1 {
				violations.Add(1)
			}
			return in, nil
		}).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
			n := active.Add(-1)
			if n > maxActive.Load() {
				maxActive.Store(n)
			}
			return nil, nil
		})
	// A single dispatcher running flows to completion inline can never
	// have two flows inside node code at once.
	s, err := NewServer(p, b, Config{Kind: EventDriven, Dispatchers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if violations.Load() != 0 {
		t.Errorf("flow interleaved with another between its own nodes %d times", violations.Load())
	}
	if got := s.Stats().Snapshot().Completed; got != 200 {
		t.Errorf("completed = %d", got)
	}
}
