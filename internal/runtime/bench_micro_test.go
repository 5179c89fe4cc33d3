package runtime

// Microbenchmarks for the per-flow hot path: end-to-end flow overhead on
// all three engines, lock acquire/release, and queue push/pop. Every
// benchmark reports allocations so an allocation regression on the hot
// path fails visibly in review (run with -benchmem).
//
// The source hands out a shared pre-allocated record, so the numbers
// measure runtime coordination cost only — not the user code's record
// construction.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lang/ast"
	"github.com/flux-lang/flux/internal/lang/parser"
)

func compileBench(b *testing.B, src string) *core.Program {
	b.Helper()
	astProg, err := parser.Parse("bench.flux", src)
	if err != nil {
		b.Fatalf("parse: %v", err)
	}
	p, err := core.Build(astProg)
	if err != nil {
		b.Fatalf("build: %v", err)
	}
	return p
}

// microSrc is a trivial straight-line program: four non-blocking nodes
// and no constraints, so every cost measured is engine overhead.
const microSrc = `
Gen () => (int v);
A (int v) => (int v);
B (int v) => (int v);
C (int v) => (int v);
Sink (int v) => ();
source Gen => F;
F = A -> B -> C -> Sink;
`

// microLockedSrc adds a writer constraint around the middle node, so the
// per-flow cost includes one acquire/release bracket.
const microLockedSrc = `
Gen () => (int v);
A (int v) => (int v);
B (int v) => (int v);
C (int v) => (int v);
Sink (int v) => ();
source Gen => F;
F = A -> B -> C -> Sink;
atomic B:{state};
`

func benchFlows(b *testing.B, kind EngineKind, src string) {
	p := compileBench(b, src)
	rec := Record{1} // shared: measure engine overhead, not record allocation
	n := 0
	pass := func(fl *Flow, in Record) (Record, error) { return in, nil }
	bnd := NewBindings().
		BindSource("Gen", func(fl *Flow) (Record, error) {
			if n >= b.N {
				return nil, ErrStop
			}
			n++
			return rec, nil
		}).
		BindNode("A", pass).
		BindNode("B", pass).
		BindNode("C", pass).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
	s, err := NewServer(p, bnd, Config{Kind: kind, PoolSize: 8})
	if err != nil {
		b.Fatalf("NewServer: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(context.Background()); err != nil {
		b.Fatalf("Run: %v", err)
	}
	b.StopTimer()
	if got := s.Stats().Snapshot().Completed; got != uint64(b.N) {
		b.Fatalf("completed = %d, want %d", got, b.N)
	}
}

// BenchmarkFlowOverhead is the per-flow end-to-end coordination cost of a
// lock-free straight-line flow on each engine.
func BenchmarkFlowOverhead(b *testing.B) {
	for _, kind := range []EngineKind{ThreadPerFlow, ThreadPool, EventDriven, WorkStealing} {
		b.Run(kind.String(), func(b *testing.B) { benchFlows(b, kind, microSrc) })
	}
}

// BenchmarkFlowOverheadLocked adds one acquire/release bracket per flow.
func BenchmarkFlowOverheadLocked(b *testing.B) {
	for _, kind := range []EngineKind{ThreadPerFlow, ThreadPool, EventDriven, WorkStealing} {
		b.Run(kind.String(), func(b *testing.B) { benchFlows(b, kind, microLockedSrc) })
	}
}

// BenchmarkFlowOverheadPooledRecord is BenchmarkFlowOverhead with the
// source drawing a fresh record per flow from its pool (Flow.NewRecord)
// instead of sharing one preallocated record: the realistic admission
// shape, which must still run at 0 allocs/flow — the record pool closes
// the last allocation in the request path. Only the inline-admission
// engines are measured: the thread pool's FIFO keeps its whole backlog
// of records live at once when the source outruns the workers, which is
// real buffering, not recyclable garbage.
func BenchmarkFlowOverheadPooledRecord(b *testing.B) {
	val := any(1) // payload boxed once; the record slice is what's measured
	for _, kind := range []EngineKind{EventDriven, WorkStealing} {
		b.Run(kind.String(), func(b *testing.B) {
			p := compileBench(b, microSrc)
			n := 0
			pass := func(fl *Flow, in Record) (Record, error) { return in, nil }
			bnd := NewBindings().
				BindSource("Gen", func(fl *Flow) (Record, error) {
					if n >= b.N {
						return nil, ErrStop
					}
					n++
					rec := fl.NewRecord(1)
					rec[0] = val
					return rec, nil
				}).
				BindNode("A", pass).
				BindNode("B", pass).
				BindNode("C", pass).
				BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
			s, err := NewServer(p, bnd, Config{Kind: kind, PoolSize: 8, Dispatchers: 1})
			if err != nil {
				b.Fatalf("NewServer: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := s.Run(context.Background()); err != nil {
				b.Fatalf("Run: %v", err)
			}
			b.StopTimer()
			if got := s.Stats().Snapshot().Completed; got != uint64(b.N) {
				b.Fatalf("completed = %d, want %d", got, b.N)
			}
		})
	}
}

// BenchmarkEngineScaling measures aggregate flow throughput of the
// event-driven engine at 1/2/4/8 dispatchers (EventDriven is the d1
// point, WorkStealing's default the GOMAXPROCS one), with eight
// goroutines admitting flows through SourceHandle.Inject. Injected flows
// run on the dispatchers; a source's records would run their first
// segment on the source's own goroutine and measure that instead. The
// in-flight count is capped, as in BenchmarkInject, so the number is
// dispatch cost, not injection-queue growth. ns/op is per flow across
// all injectors — the scaling curve recorded in EXPERIMENTS.md.
func BenchmarkEngineScaling(b *testing.B) {
	const injectors = 8
	for _, disp := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%s-d%d", WorkStealing, disp), func(b *testing.B) {
			p := compileBench(b, `
Gen () => (int v);
A (int v) => (int v);
B (int v) => (int v);
Sink (int v) => ();
source Gen => F;
F = A -> B -> Sink;
`)
			rec := Record{1}
			pass := func(fl *Flow, in Record) (Record, error) { return in, nil }
			bnd := NewBindings().
				BindSource("Gen", func(fl *Flow) (Record, error) { return nil, ErrStop }).
				BindNode("A", pass).
				BindNode("B", pass).
				BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
			s, err := NewServer(p, bnd, Config{Kind: WorkStealing, Dispatchers: disp, KeepAlive: true})
			if err != nil {
				b.Fatalf("NewServer: %v", err)
			}
			h, err := s.Source("Gen")
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Start(context.Background()); err != nil {
				b.Fatalf("Start: %v", err)
			}
			completed := &s.stats.Completed
			var issued atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < injectors; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n := issued.Add(1)
						if n > int64(b.N) {
							return
						}
						for n-int64(completed.Load()) > injectors*stealBatch {
							runtime.Gosched()
						}
						if err := h.Inject(rec); err != nil {
							b.Errorf("Inject: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			for completed.Load() < uint64(b.N) {
				runtime.Gosched()
			}
			b.StopTimer()
			if err := s.Shutdown(context.Background()); err != nil {
				b.Fatalf("Shutdown: %v", err)
			}
			if got := s.Stats().Snapshot().Completed; got != uint64(b.N) {
				b.Fatalf("completed = %d, want %d", got, b.N)
			}
		})
	}
}

// BenchmarkLockAcquireRelease measures one uncontended acquire+release
// round trip through the lock manager.
func BenchmarkLockAcquireRelease(b *testing.B) {
	b.Run("global", func(b *testing.B) {
		m := NewLockManager()
		fl := &Flow{}
		c := writer("x")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Acquire(fl, c)
			m.ReleaseAll(fl)
		}
	})
	b.Run("session", func(b *testing.B) {
		m := NewLockManager()
		fl := &Flow{Session: 7}
		c := ast.Constraint{Name: "state", Mode: ast.Writer, Session: true}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Acquire(fl, c)
			m.ReleaseAll(fl)
		}
	})
	// Distinct constraints from parallel goroutines: measures lock-table
	// lookup scalability (the paper's servers hold many unrelated
	// constraints at once).
	b.Run("global-parallel", func(b *testing.B) {
		m := NewLockManager()
		names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		var idx atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			fl := &Flow{}
			i := int(idx.Add(1))
			c := writer(names[i%len(names)])
			for pb.Next() {
				m.Acquire(fl, c)
				m.ReleaseAll(fl)
			}
		})
	})
}

// BenchmarkQueuePushPop measures the event/admission queue.
func BenchmarkQueuePushPop(b *testing.B) {
	b.Run("pingpong", func(b *testing.B) {
		q := newFIFO[int]()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.push(i)
			q.pop()
		}
	})
	b.Run("burst64", func(b *testing.B) {
		q := newFIFO[int]()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				q.push(j)
			}
			for j := 0; j < 64; j++ {
				q.pop()
			}
		}
	})
	b.Run("burst64-batch", func(b *testing.B) {
		q := newFIFO[int]()
		buf := make([]int, poolBatch)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				q.push(j)
			}
			drained := 0
			for drained < 64 {
				n, _ := q.popBatch(buf)
				drained += n
			}
		}
	})
}

// BenchmarkInject measures the external-admission hot path: a
// pre-resolved SourceHandle injecting one record per op into a running
// keep-alive server whose only source has retired — the connection
// plane's per-request shape. The record is shared so the number is
// admission cost, not record construction. Gated by CI: the event and
// steal engines must stay at 0 allocs/op (the thread engine's per-flow
// goroutine and the pool's FIFO buffering are the engines' own designs).
func BenchmarkInject(b *testing.B) {
	for _, kind := range []EngineKind{ThreadPerFlow, ThreadPool, EventDriven, WorkStealing} {
		b.Run(kind.String(), func(b *testing.B) {
			s, h, stop := startKeepAlive(b, kind,
				func(fl *Flow, in Record) (Record, error) { return nil, nil })
			rec := Record{1}
			completed := &s.stats.Completed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Steady state, not unbounded backlog: a real admission
				// plane runs against a server that keeps up, so cap the
				// in-flight count and let the engine drain. Without this
				// the benchmark measures queue growth (flows parked in
				// the FIFO cannot recycle), not the admission path.
				for i-int(completed.Load()) > 4*stealBatch {
					runtime.Gosched()
				}
				if err := h.Inject(rec); err != nil {
					b.Fatalf("Inject: %v", err)
				}
			}
			b.StopTimer()
			stop()
			if got := s.Stats().Snapshot().Completed; got != uint64(b.N) {
				b.Fatalf("completed = %d, want %d", got, b.N)
			}
		})
	}
}

// startKeepAlive starts a keep-alive server running microSrc whose only
// source has retired, so flows enter solely through the returned Gen
// handle, as on the connection plane. stop cancels and waits.
func startKeepAlive(b *testing.B, kind EngineKind, sink NodeFunc, blocking ...string) (*Server, *SourceHandle, func()) {
	b.Helper()
	p := compileBench(b, microSrc)
	pass := func(fl *Flow, in Record) (Record, error) { return in, nil }
	bnd := NewBindings().
		BindSource("Gen", func(fl *Flow) (Record, error) { return nil, ErrStop }).
		BindNode("A", pass).
		BindNode("B", pass).
		BindNode("C", pass).
		BindNode("Sink", sink).
		MarkBlocking(blocking...)
	s, err := NewServer(p, bnd, Config{Kind: kind, PoolSize: 8, KeepAlive: true})
	if err != nil {
		b.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		b.Fatalf("Start: %v", err)
	}
	h, err := s.Source("Gen")
	if err != nil {
		b.Fatalf("Source: %v", err)
	}
	return s, h, func() { cancel(); _ = s.Wait() }
}

// BenchmarkBlockingHop measures one request-shaped flow with a blocking
// node: a single Inject into an idle keep-alive server, awaited until
// Sink runs, so every iteration pays the wake of a parked engine plus
// the hop out to the blocking-offload pool and back (the web server's
// per-request shape). The other microbenchmarks never block, which is
// how a 20 µs steal-engine hop went unseen.
func BenchmarkBlockingHop(b *testing.B) {
	for _, kind := range []EngineKind{ThreadPerFlow, ThreadPool, EventDriven, WorkStealing} {
		b.Run(kind.String(), func(b *testing.B) {
			done := make(chan struct{}, 1)
			_, h, stop := startKeepAlive(b, kind, func(fl *Flow, in Record) (Record, error) {
				done <- struct{}{}
				return nil, nil
			}, "B")
			rec := Record{1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Inject(rec); err != nil {
					b.Fatalf("Inject: %v", err)
				}
				<-done
			}
			b.StopTimer()
			stop()
		})
	}
}

// BenchmarkKeepAliveContinue measures a keep-alive conversation's
// per-request runtime cost: a one-node flow whose node blocks (as the
// web server's ReadRequest does) and, at its end, re-admits the next
// request through SourceHandle.Continue. The thread, pool and steal
// engines run the successor on the goroutine already running; the event
// engine's flows end on its dispatcher, so each link is an Inject plus
// the offload round trip. Gated by CI at 0 allocs/op.
func BenchmarkKeepAliveContinue(b *testing.B) {
	for _, kind := range []EngineKind{ThreadPerFlow, ThreadPool, EventDriven, WorkStealing} {
		b.Run(kind.String(), func(b *testing.B) {
			p := compileBench(b, `
Gen () => (int v);
Serve (int v) => ();
source Gen => F;
F = Serve;
`)
			var h *SourceHandle
			var served atomic.Int64
			done := make(chan struct{})
			rec := Record{1}
			bnd := NewBindings().
				BindSource("Gen", func(fl *Flow) (Record, error) { return nil, ErrStop }).
				BindNode("Serve", func(fl *Flow, in Record) (Record, error) {
					if served.Add(1) == int64(b.N) {
						close(done)
					} else if err := h.Continue(fl, rec); err != nil {
						b.Errorf("Continue: %v", err)
					}
					return nil, nil
				}).
				MarkBlocking("Serve")
			s, err := NewServer(p, bnd, Config{Kind: kind, PoolSize: 8, KeepAlive: true})
			if err != nil {
				b.Fatalf("NewServer: %v", err)
			}
			if h, err = s.Source("Gen"); err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			if err := s.Start(ctx); err != nil {
				b.Fatalf("Start: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := h.Inject(rec); err != nil {
				b.Fatalf("Inject: %v", err)
			}
			<-done
			b.StopTimer()
			cancel()
			_ = s.Wait()
			if got := s.Stats().Snapshot().Completed; got != uint64(b.N) {
				b.Fatalf("completed = %d, want %d", got, b.N)
			}
		})
	}
}

// BenchmarkDequeOwnerPop measures the steal deque's owner end: the
// one-mutex-trip-per-event baseline against the owner-side batch pop
// that amortizes the mutex across stealBatch events (the ROADMAP
// multicore item). Both pop in LIFO order; only the locking differs.
func BenchmarkDequeOwnerPop(b *testing.B) {
	b.Run("single", func(b *testing.B) {
		var d deque[int]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < stealBatch; j++ {
				d.push(j)
			}
			for j := 0; j < stealBatch; j++ {
				d.pop()
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		var d deque[int]
		buf := make([]int, stealBatch)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < stealBatch; j++ {
				d.push(j)
			}
			drained := 0
			for drained < stealBatch {
				n := d.popBatch(buf)
				if n == 0 {
					b.Fatal("deque drained early")
				}
				drained += n
			}
		}
	})
}
