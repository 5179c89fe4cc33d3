package runtime

// Tests for the external-admission fast path: pre-resolved
// SourceHandles, the lock-free Inject hot path, and admission behavior
// around shutdown — the runtime contract the connection plane
// (internal/netkit) is built on.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stoppedSourceServer builds a keep-alive server whose only source
// retires immediately, so every flow must enter through Inject — the
// connection-plane shape.
func stoppedSourceServer(t *testing.T, kind EngineKind, sink NodeFunc) *Server {
	t.Helper()
	p := compileSrc(t, pipelineSrc)
	b := NewBindings().
		BindSource("Gen", func(fl *Flow) (Record, error) { return nil, ErrStop }).
		BindNode("Double", nopNode).
		BindNode("Sink", sink)
	s, err := NewServer(p, b, Config{Kind: kind, PoolSize: 4, Dispatchers: 2, KeepAlive: true})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s
}

// TestSourceHandleInjectAllEngines: a pre-resolved handle admits flows
// on every engine exactly as Server.Inject does, with the source
// exhausted and the server held open by keep-alive.
func TestSourceHandleInjectAllEngines(t *testing.T) {
	for _, kind := range []EngineKind{ThreadPerFlow, ThreadPool, EventDriven, WorkStealing} {
		t.Run(kind.String(), func(t *testing.T) {
			var sum atomic.Int64
			s := stoppedSourceServer(t, kind, func(fl *Flow, in Record) (Record, error) {
				sum.Add(int64(in[0].(int)))
				return nil, nil
			})
			h, err := s.Source("Gen")
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Inject(Record{1}); !errors.Is(err, ErrNotStarted) {
				t.Fatalf("Inject before Start = %v, want ErrNotStarted", err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			if err := s.Start(ctx); err != nil {
				t.Fatal(err)
			}
			const total = 200
			for i := 1; i <= total; i++ {
				if err := h.Inject(Record{i}); err != nil {
					t.Fatalf("Inject %d: %v", i, err)
				}
			}
			cancel()
			_ = s.Wait()
			if want := int64(total * (total + 1) / 2); sum.Load() != want {
				t.Errorf("sum = %d, want %d", sum.Load(), want)
			}
			st := s.Stats().Snapshot()
			if st.Started != total || st.Completed != total {
				t.Errorf("stats = %+v, want %d started and completed", st, total)
			}
		})
	}
}

// TestSourceHandleUnknownSource: resolving a nonexistent source fails at
// resolution time, not per event.
func TestSourceHandleUnknownSource(t *testing.T) {
	s := stoppedSourceServer(t, ThreadPerFlow, nopNode)
	if _, err := s.Source("NoSuch"); err == nil {
		t.Fatal("Source on unknown name succeeded")
	}
}

// TestInjectDuringShutdown: injectors hammering a server through its
// shutdown must see clean ErrServerClosed refusals — no panics, no
// hangs — and every accepted flow must drain to a terminal.
func TestInjectDuringShutdown(t *testing.T) {
	for _, kind := range []EngineKind{ThreadPerFlow, ThreadPool, EventDriven, WorkStealing} {
		t.Run(kind.String(), func(t *testing.T) {
			var done atomic.Int64
			s := stoppedSourceServer(t, kind, func(fl *Flow, in Record) (Record, error) {
				done.Add(1)
				return nil, nil
			})
			h, err := s.Source("Gen")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(context.Background()); err != nil {
				t.Fatal(err)
			}

			const injectors = 4
			var wg sync.WaitGroup
			var accepted atomic.Int64
			stop := make(chan struct{})
			for i := 0; i < injectors; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						err := h.Inject(Record{1})
						switch {
						case err == nil:
							accepted.Add(1)
						case errors.Is(err, ErrServerClosed):
							return
						default:
							t.Errorf("Inject: %v", err)
							return
						}
					}
				}()
			}
			time.Sleep(5 * time.Millisecond) // let injection ramp up
			shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := s.Shutdown(shCtx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			shCancel()
			close(stop)
			wg.Wait()
			if err := s.Wait(); err != nil {
				t.Errorf("Wait: %v", err)
			}
			st := s.Stats().Snapshot()
			if st.Started != uint64(accepted.Load()) {
				t.Errorf("started = %d, want %d (accepted injects)", st.Started, accepted.Load())
			}
			if got := st.Completed + st.Errored + st.Dropped; got != st.Started {
				t.Errorf("terminals = %d, started = %d: accepted flows lost in shutdown", got, st.Started)
			}
			if done.Load() != int64(st.Completed) {
				t.Errorf("sink ran %d times, completed = %d", done.Load(), st.Completed)
			}
		})
	}
}

// TestInjectSteadyStateAllocFree: the per-event admission path — a
// resolved handle injecting into a running engine — must not allocate
// in steady state on the event and steal engines (the acceptance bar
// BenchmarkInject tracks; the thread engine's per-flow goroutine and
// the pool's FIFO buffering are exempt by design). The assertion allows
// strictly-less-than-one alloc per op: pool warm-up and queue-chunk
// growth amortize to ~0, while a real per-op allocation (a closure, a
// flow build) shows up as >= 1.
func TestInjectSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes under -race; allocation behavior is asserted in the normal build")
	}
	for _, kind := range []EngineKind{EventDriven, WorkStealing} {
		t.Run(kind.String(), func(t *testing.T) {
			s := stoppedSourceServer(t, kind, nopNode)
			h, err := s.Source("Gen")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			if err := s.Start(ctx); err != nil {
				t.Fatal(err)
			}
			defer func() {
				cancel()
				_ = s.Wait()
			}()
			rec := Record{1}
			for i := 0; i < 1000; i++ { // warm the pools
				if err := h.Inject(rec); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(2000, func() {
				if err := h.Inject(rec); err != nil {
					t.Fatal(err)
				}
			})
			if avg >= 1 {
				t.Errorf("Inject allocates %.2f/op in steady state, want < 1 (hot path regression)", avg)
			}
		})
	}
}
