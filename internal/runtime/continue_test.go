package runtime

// Tests for SourceHandle.Continue — re-admission from inside a running
// flow, run next on the goroutine already running where the engine can —
// and for the steal engine's offload workers, which carry flows on
// without ever blocking in acquire.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chainServer builds a keep-alive server over pipelineSrc with Double
// marked blocking (the keep-alive request shape: a blocking read first),
// whose only source retires at once; sink is built from the server's
// Gen handle, so flows can re-admit through it.
func chainServer(t *testing.T, kind EngineKind, cfg Config, sink func(h *SourceHandle) NodeFunc) (*Server, *SourceHandle) {
	t.Helper()
	p := compileSrc(t, pipelineSrc)
	var h *SourceHandle
	b := NewBindings().
		BindSource("Gen", func(fl *Flow) (Record, error) { return nil, ErrStop }).
		BindNode("Double", nopNode).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return sink(h)(fl, in) }).
		MarkBlocking("Double")
	cfg.Kind = kind
	cfg.KeepAlive = true
	s, err := NewServer(p, b, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if h, err = s.Source("Gen"); err != nil {
		t.Fatal(err)
	}
	return s, h
}

// TestContinueCountsAddUp: chains of K continuations, each flow's Sink
// re-admitting its successor, count exactly one Started and one
// Completed flow per link with no refusal. A lone chain on an idle
// engine is carried link by link on the goroutine running it — on the
// event engine too, whose offload worker carries a flow on from its
// blocking node. With several chains a link may find another chain's
// link queued and go through the queue instead; the counts must not
// change.
func TestContinueCountsAddUp(t *testing.T) {
	const links = 50
	for _, kind := range []EngineKind{ThreadPerFlow, ThreadPool, EventDriven, WorkStealing} {
		for _, chains := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/chains=%d", kind, chains), func(t *testing.T) {
				var refused, carried atomic.Int64
				s, h := chainServer(t, kind, Config{PoolSize: 4, Dispatchers: 2, AsyncWorkers: 4},
					func(h *SourceHandle) NodeFunc {
						return func(fl *Flow, in Record) (Record, error) {
							if k := in[0].(int); k < links {
								if err := h.Continue(fl, Record{k + 1}); err != nil {
									refused.Add(1)
								} else if fl.car != nil && fl.car.st != nil {
									carried.Add(1)
								}
							}
							return nil, nil
						}
					})
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if err := s.Start(ctx); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < chains; i++ {
					if err := h.Inject(Record{0}); err != nil {
						t.Fatal(err)
					}
				}
				want := uint64(chains * (links + 1))
				deadline := time.Now().Add(10 * time.Second)
				for s.Stats().Completed.Load() < want {
					if time.Now().After(deadline) {
						t.Fatalf("chains stalled: %+v", s.Stats().Snapshot())
					}
					time.Sleep(time.Millisecond)
				}
				cancel()
				_ = s.Wait()
				st := s.Stats().Snapshot()
				if st.Started != want || st.Completed != want || refused.Load() != 0 {
					t.Errorf("started/completed/refused = %d/%d/%d, want %d/%d/0",
						st.Started, st.Completed, refused.Load(), want, want)
				}
				if chains > 1 {
					return
				}
				if carried.Load() != links {
					t.Errorf("%d of %d links carried on the running goroutine, want all",
						carried.Load(), links)
				}
			})
		}
	}
}

// TestContinueAfterShutdown: endless chains re-admitting through
// Continue while the server shuts down. Every chain ends in exactly one
// refusal, and that refusal is ErrServerClosed; every accepted link is
// one Started flow that reaches its terminal.
func TestContinueAfterShutdown(t *testing.T) {
	const chains = 4
	for _, kind := range []EngineKind{ThreadPerFlow, ThreadPool, EventDriven, WorkStealing} {
		t.Run(kind.String(), func(t *testing.T) {
			var accepted, refused, other atomic.Int64
			s, h := chainServer(t, kind, Config{PoolSize: 4, Dispatchers: 2, AsyncWorkers: 4},
				func(h *SourceHandle) NodeFunc {
					return func(fl *Flow, in Record) (Record, error) {
						switch err := h.Continue(fl, in); {
						case err == nil:
							accepted.Add(1)
						case errors.Is(err, ErrServerClosed):
							refused.Add(1)
						default:
							other.Add(1)
						}
						return nil, nil
					}
				})
			if err := s.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < chains; i++ {
				if err := h.Inject(Record{i}); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(10 * time.Millisecond)
			shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer shCancel()
			if err := s.Shutdown(shCtx); err != nil {
				t.Fatalf("Shutdown: %v (chains outlived cancellation)", err)
			}
			if err := s.Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if err := h.Continue(nil, Record{0}); !errors.Is(err, ErrServerClosed) {
				t.Errorf("Continue after Shutdown = %v, want ErrServerClosed", err)
			}
			st := s.Stats().Snapshot()
			if refused.Load() != chains || other.Load() != 0 {
				t.Errorf("refusals = %d (other errors %d), want one ErrServerClosed per chain (%d)",
					refused.Load(), other.Load(), chains)
			}
			if st.Started != uint64(chains+accepted.Load()) || st.Completed != st.Started {
				t.Errorf("started/completed = %d/%d, want %d injected + %d continued, all completed",
					st.Started, st.Completed, chains, accepted.Load())
			}
		})
	}
}

// queuedBlocking reports how many offloaded blocking steps wait for a
// worker (event and steal engines) or admissions wait for a pool worker.
func queuedBlocking(s *Server) int {
	switch e := s.engine.(type) {
	case *poolEngine:
		return e.queue.len()
	case *stealEngine:
		return e.asyncq.len()
	}
	return 0
}

// TestContinueKeepsFIFOUnderBacklog: with one goroutine able to block
// (PoolSize 1, or one offload worker), flow B queued while A runs goes
// ahead of A's continuation — carrying is for an idle engine, not a way
// for a keep-alive conversation to jump the queue. The thread-per-flow
// engine has no queue to be fair about.
func TestContinueKeepsFIFOUnderBacklog(t *testing.T) {
	for _, kind := range []EngineKind{ThreadPool, EventDriven, WorkStealing} {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, pipelineSrc)
			var (
				h       *SourceHandle
				mu      sync.Mutex
				order   []string
				running = make(chan struct{})
				release = make(chan struct{})
			)
			b := NewBindings().
				BindSource("Gen", func(fl *Flow) (Record, error) { return nil, ErrStop }).
				BindNode("Double", func(fl *Flow, in Record) (Record, error) {
					name := in[0].(string)
					mu.Lock()
					order = append(order, name)
					mu.Unlock()
					if name == "A" {
						close(running)
						<-release
					}
					return in, nil
				}).
				BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
					if in[0].(string) == "A" {
						if err := h.Continue(fl, Record{"A'"}); err != nil {
							t.Errorf("Continue: %v", err)
						}
					}
					return nil, nil
				}).
				MarkBlocking("Double")
			s, err := NewServer(p, b, Config{Kind: kind, PoolSize: 1, Dispatchers: 1,
				AsyncWorkers: 1, KeepAlive: true})
			if err != nil {
				t.Fatal(err)
			}
			if h, err = s.Source("Gen"); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := s.Start(ctx); err != nil {
				t.Fatal(err)
			}
			if err := h.Inject(Record{"A"}); err != nil {
				t.Fatal(err)
			}
			// A holds the only blocking-capable goroutine until B is queued
			// behind it (injected together, the pool's worker could claim
			// both in one batch).
			<-running
			if err := h.Inject(Record{"B"}); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for queuedBlocking(s) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("B never queued behind A")
				}
				time.Sleep(100 * time.Microsecond)
			}
			close(release)
			for s.Stats().Completed.Load() < 3 {
				if time.Now().After(deadline) {
					t.Fatalf("flows stalled: %+v", s.Stats().Snapshot())
				}
				time.Sleep(100 * time.Microsecond)
			}
			cancel()
			_ = s.Wait()
			mu.Lock()
			defer mu.Unlock()
			if got := len(order); got != 3 || order[0] != "A" || order[1] != "B" || order[2] != "A'" {
				t.Errorf("blocking-node order = %v, want [A B A']", order)
			}
		})
	}
}

// TestOffloadWorkersNeverBlockInAcquire: a writer constraint spans a
// blocking node, and 64 flows contend for it through two offload
// workers. Half the flows take the constraint on a dispatcher and then
// wait in the async queue holding it; the other half reach it on an
// offload worker after a first blocking node. A worker that blocked in
// acquire instead of parking the flow would wait on a holder queued
// behind it — with both workers blocked, nothing runs again.
func TestOffloadWorkersNeverBlockInAcquire(t *testing.T) {
	const flows = 64
	for _, kind := range []EngineKind{WorkStealing, EventDriven} {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, `
Gen () => (int v);
Pre (int v) => (int v);
HoldA (int v) => (int v);
HoldB (int v) => (int v);
Sink (int v) => ();
source Gen => F;
F = Route -> Sink;
typedef odd IsOdd;
Route:[odd] = Pre -> HoldA;
Route:[_] = HoldB;
atomic HoldA:{c};
atomic HoldB:{c};
`)
			inside := 0 // guarded by the constraint alone
			hold := func(fl *Flow, in Record) (Record, error) {
				inside++
				time.Sleep(100 * time.Microsecond)
				inside--
				return in, nil
			}
			var sunk atomic.Int64
			b := NewBindings().
				BindSource("Gen", counterSource(flows)).
				BindPredicate("IsOdd", func(v any) bool { return v.(int)%2 == 1 }).
				BindNode("Pre", nopNode).
				BindNode("HoldA", hold).
				BindNode("HoldB", hold).
				BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
					sunk.Add(1)
					return nil, nil
				}).
				MarkBlocking("Pre", "HoldA", "HoldB")
			s, err := NewServer(p, b, Config{Kind: kind, Dispatchers: 2, AsyncWorkers: 2})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() { errc <- s.Run(ctx) }()
			select {
			case err := <-errc:
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("deadlock: %d/%d flows completed with 2 offload workers", sunk.Load(), flows)
			}
			if got := s.Stats().Snapshot().Completed; got != flows {
				t.Errorf("completed = %d, want %d", got, flows)
			}
		})
	}
}
