package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lang/parser"
)

func compileSrc(t *testing.T, src string) *core.Program {
	t.Helper()
	astProg, err := parser.Parse("test.flux", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := core.Build(astProg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// counterSource produces n records then stops.
func counterSource(n int) SourceFunc {
	var i atomic.Int64
	return func(fl *Flow) (Record, error) {
		v := i.Add(1)
		if v > int64(n) {
			return nil, ErrStop
		}
		return Record{int(v)}, nil
	}
}

const pipelineSrc = `
Gen () => (int v);
Double (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Double -> Sink;
`

// buildPipeline returns a server running Gen -> Double -> Sink over the
// given engine, with results collected into got.
func buildPipeline(t *testing.T, kind EngineKind, n int) (*Server, *[]int, *sync.Mutex) {
	t.Helper()
	p := compileSrc(t, pipelineSrc)
	var mu sync.Mutex
	got := &[]int{}
	b := NewBindings().
		BindSource("Gen", counterSource(n)).
		BindNode("Double", func(fl *Flow, in Record) (Record, error) {
			return Record{in[0].(int) * 2}, nil
		}).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
			mu.Lock()
			*got = append(*got, in[0].(int))
			mu.Unlock()
			return nil, nil
		})
	s, err := NewServer(p, b, Config{Kind: kind, PoolSize: 4})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s, got, &mu
}

func TestPipelineAllEngines(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			s, got, mu := buildPipeline(t, kind, 50)
			if err := s.Run(context.Background()); err != nil {
				t.Fatalf("Run: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(*got) != 50 {
				t.Fatalf("sink saw %d records, want 50", len(*got))
			}
			sum := 0
			for _, v := range *got {
				sum += v
			}
			if want := 2 * 50 * 51 / 2; sum != want {
				t.Errorf("sum = %d, want %d", sum, want)
			}
			st := s.Stats().Snapshot()
			if st.Started != 50 || st.Completed != 50 || st.Errored != 0 {
				t.Errorf("stats = %+v", st)
			}
		})
	}
}

const dispatchSrc = `
Gen () => (int v);
Evens (int v) => (int v);
Odds (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Route -> Sink;
typedef even IsEven;
Route:[even] = Evens;
Route:[_] = Odds;
`

func TestPredicateDispatch(t *testing.T) {
	p := compileSrc(t, dispatchSrc)
	var evens, odds atomic.Int64
	b := NewBindings().
		BindSource("Gen", counterSource(100)).
		BindPredicate("IsEven", func(v any) bool { return v.(int)%2 == 0 }).
		BindNode("Evens", func(fl *Flow, in Record) (Record, error) {
			evens.Add(1)
			return in, nil
		}).
		BindNode("Odds", func(fl *Flow, in Record) (Record, error) {
			odds.Add(1)
			return in, nil
		}).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
	s, err := NewServer(p, b, Config{Kind: ThreadPool, PoolSize: 8})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if evens.Load() != 50 || odds.Load() != 50 {
		t.Errorf("evens=%d odds=%d, want 50/50", evens.Load(), odds.Load())
	}
}

const errorSrc = `
Gen () => (int v);
Risky (int v) => (int v);
Sink (int v) => ();
Handler (int v) => ();
source Gen => Flow;
Flow = Risky -> Sink;
handle error Risky => Handler;
`

func TestErrorHandlerInvoked(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, errorSrc)
			var handled, sunk atomic.Int64
			b := NewBindings().
				BindSource("Gen", counterSource(20)).
				BindNode("Risky", func(fl *Flow, in Record) (Record, error) {
					if in[0].(int)%4 == 0 {
						return nil, errors.New("boom")
					}
					return in, nil
				}).
				BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
					sunk.Add(1)
					return nil, nil
				}).
				BindNode("Handler", func(fl *Flow, in Record) (Record, error) {
					handled.Add(1)
					return nil, nil
				})
			s, err := NewServer(p, b, Config{Kind: kind, PoolSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			// Multiples of 4 in 1..20: 4, 8, 12, 16, 20 -> 5 failures.
			if handled.Load() != 5 {
				t.Errorf("handled = %d, want 5", handled.Load())
			}
			if sunk.Load() != 15 {
				t.Errorf("sunk = %d, want 15", sunk.Load())
			}
			st := s.Stats().Snapshot()
			if st.Errored != 5 || st.Completed != 15 {
				t.Errorf("stats = %+v", st)
			}
		})
	}
}

func TestUnhandledErrorTerminatesFlow(t *testing.T) {
	p := compileSrc(t, pipelineSrc)
	b := NewBindings().
		BindSource("Gen", counterSource(10)).
		BindNode("Double", func(fl *Flow, in Record) (Record, error) {
			return nil, errors.New("always fails")
		}).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
			t.Error("sink should never run")
			return nil, nil
		})
	s, err := NewServer(p, b, Config{Kind: ThreadPool, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats().Snapshot()
	if st.Errored != 10 || st.Completed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

const atomicSrc = `
Gen () => (int v);
Bump (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Bump -> Sink;
atomic Bump:{counter};
`

// TestAtomicityConstraintSerializes drives many concurrent flows through
// a node that increments an unsynchronized counter under a writer
// constraint. Run with -race this fails loudly if the lock manager does
// not serialize; without constraints the final count would also be lost
// to races.
func TestAtomicityConstraintSerializes(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, atomicSrc)
			counter := 0 // deliberately unsynchronized
			b := NewBindings().
				BindSource("Gen", counterSource(500)).
				BindNode("Bump", func(fl *Flow, in Record) (Record, error) {
					counter++
					return in, nil
				}).
				BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
			s, err := NewServer(p, b, Config{Kind: kind, PoolSize: 16})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if counter != 500 {
				t.Errorf("counter = %d, want 500 (constraint failed to serialize)", counter)
			}
		})
	}
}

// TestReaderConstraintAllowsConcurrency verifies that reader-constrained
// nodes overlap: with 8 flows each holding the read lock for 10ms, total
// wall time far below 8x10ms proves concurrent readers.
func TestReaderConstraintAllowsConcurrency(t *testing.T) {
	p := compileSrc(t, `
Gen () => (int v);
Read (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Read -> Sink;
atomic Read:{state?};
`)
	var inside, maxInside atomic.Int64
	b := NewBindings().
		BindSource("Gen", counterSource(8)).
		BindNode("Read", func(fl *Flow, in Record) (Record, error) {
			n := inside.Add(1)
			for {
				m := maxInside.Load()
				if n <= m || maxInside.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			inside.Add(-1)
			return in, nil
		}).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
	s, err := NewServer(p, b, Config{Kind: ThreadPerFlow})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if maxInside.Load() < 2 {
		t.Errorf("max concurrent readers = %d, want >= 2", maxInside.Load())
	}
	if elapsed := time.Since(start); elapsed > 60*time.Millisecond {
		t.Errorf("elapsed = %v; readers apparently serialized", elapsed)
	}
}

// TestSessionConstraintScopesLocks: flows in different sessions must not
// contend on a session-scoped constraint, flows in the same session must.
func TestSessionConstraintScopesLocks(t *testing.T) {
	p := compileSrc(t, `
Gen () => (int v);
Touch (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Touch -> Sink;
atomic Touch:{state(session)};
session Gen SessOf;
`)
	perSession := map[uint64]*int{0: new(int), 1: new(int)}
	b := NewBindings().
		BindSource("Gen", counterSource(200)).
		BindSession("SessOf", func(rec Record) uint64 {
			return uint64(rec[0].(int) % 2)
		}).
		BindNode("Touch", func(fl *Flow, in Record) (Record, error) {
			*perSession[fl.Session]++ // serialized per session by the constraint
			return in, nil
		}).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
	s, err := NewServer(p, b, Config{Kind: ThreadPerFlow})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if *perSession[0] != 100 || *perSession[1] != 100 {
		t.Errorf("per-session counts = %d/%d, want 100/100", *perSession[0], *perSession[1])
	}
}

func TestDroppedFlowWhenNoCaseMatches(t *testing.T) {
	p := compileSrc(t, `
Gen () => (int v);
Big (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Route -> Sink;
typedef big IsBig;
Route:[big] = Big;
`)
	b := NewBindings().
		BindSource("Gen", counterSource(10)).
		BindPredicate("IsBig", func(v any) bool { return v.(int) > 5 }).
		BindNode("Big", func(fl *Flow, in Record) (Record, error) { return in, nil }).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
	s, err := NewServer(p, b, Config{Kind: ThreadPool, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats().Snapshot()
	if st.Dropped != 5 || st.Completed != 5 {
		t.Errorf("stats = %+v, want 5 dropped / 5 completed", st)
	}
}

func TestArityErrorCountsAndTerminates(t *testing.T) {
	p := compileSrc(t, pipelineSrc)
	b := NewBindings().
		BindSource("Gen", counterSource(3)).
		BindNode("Double", func(fl *Flow, in Record) (Record, error) {
			return Record{1, 2, 3}, nil // wrong arity: signature says 1
		}).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
			t.Error("sink must not run after arity error")
			return nil, nil
		})
	s, err := NewServer(p, b, Config{Kind: ThreadPool, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats().Snapshot()
	if st.ArityErrors != 3 || st.Errored != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestValidateMissingBindings(t *testing.T) {
	p := compileSrc(t, pipelineSrc)
	cases := []struct {
		name string
		b    *Bindings
		want string
	}{
		{"missing source", NewBindings().
			BindNode("Double", nopNode).BindNode("Sink", nopNode), `source "Gen"`},
		{"missing node", NewBindings().
			BindSource("Gen", counterSource(1)).BindNode("Sink", nopNode), `node "Double"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewServer(p, tc.b, Config{})
			if err == nil {
				t.Fatal("expected binding error")
			}
			var be *BindingError
			if !errors.As(err, &be) {
				t.Fatalf("error type = %T", err)
			}
			if got := err.Error(); !contains(got, tc.want) {
				t.Errorf("error = %q, want substring %q", got, tc.want)
			}
		})
	}
}

func nopNode(fl *Flow, in Record) (Record, error) { return in, nil }

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		})())
}

func TestContextCancelStopsSources(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, pipelineSrc)
			b := NewBindings().
				BindSource("Gen", func(fl *Flow) (Record, error) {
					select {
					case <-fl.Ctx.Done():
						return nil, fl.Ctx.Err()
					case <-time.After(time.Millisecond):
						return Record{1}, nil
					}
				}).
				BindNode("Double", nopNode).
				BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
			s, err := NewServer(p, b, Config{Kind: kind, PoolSize: 2})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- s.Run(ctx) }()
			select {
			case err := <-done:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("Run returned %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("server did not stop after context cancellation")
			}
			if s.Stats().Snapshot().Completed == 0 {
				t.Error("no flows completed before cancellation")
			}
		})
	}
}

// TestEventEngineOffloadsBlockingNodes: a blocking node sleeping 20ms x 8
// flows completes in far less than 160ms when offloaded concurrently.
func TestEventEngineOffloadsBlockingNodes(t *testing.T) {
	p := compileSrc(t, pipelineSrc)
	b := NewBindings().
		BindSource("Gen", counterSource(8)).
		BindNode("Double", func(fl *Flow, in Record) (Record, error) {
			time.Sleep(20 * time.Millisecond)
			return in, nil
		}).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil }).
		MarkBlocking("Double")
	s, err := NewServer(p, b, Config{Kind: EventDriven, AsyncWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 120*time.Millisecond {
		t.Errorf("elapsed = %v; blocking nodes apparently serialized on the dispatcher", elapsed)
	}
	if got := s.Stats().Snapshot().Completed; got != 8 {
		t.Errorf("completed = %d", got)
	}
}

// TestMultipleSources runs two sources feeding the same flow.
func TestMultipleSources(t *testing.T) {
	p := compileSrc(t, `
GenA () => (int v);
GenB () => (int v);
Sink (int v) => ();
source GenA => Flow;
source GenB => Flow;
Flow = Sink;
`)
	var n atomic.Int64
	b := NewBindings().
		BindSource("GenA", counterSource(30)).
		BindSource("GenB", counterSource(20)).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
			n.Add(1)
			return nil, nil
		})
	s, err := NewServer(p, b, Config{Kind: ThreadPool, PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 50 {
		t.Errorf("sink executions = %d, want 50", n.Load())
	}
}

// TestPathProfiling verifies Ball-Larus IDs reported by the runtime
// decode to the expected node sequences.
func TestPathProfiling(t *testing.T) {
	p := compileSrc(t, dispatchSrc)
	rec := &recordingObserver{}
	b := NewBindings().
		BindSource("Gen", counterSource(10)).
		BindPredicate("IsEven", func(v any) bool { return v.(int)%2 == 0 }).
		BindNode("Evens", nopNode).
		BindNode("Odds", nopNode).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
	s, err := NewServer(p, b, Config{Kind: ThreadPool, PoolSize: 1, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	g := p.Graphs["Gen"]
	rec.mu.Lock()
	defer rec.mu.Unlock()
	flows := rec.paths[FlowCompleted]
	if len(flows) != 2 || len(rec.paths) != 1 {
		t.Fatalf("paths by outcome = %v, want 2 completed paths", rec.paths)
	}
	for id, count := range flows {
		label := g.PathLabel(id)
		if count != 5 {
			t.Errorf("path %q count = %d, want 5", label, count)
		}
		if label != "Gen -> Evens -> Sink" && label != "Gen -> Odds -> Sink" {
			t.Errorf("unexpected path %q", label)
		}
	}
	if rec.nodes["Sink"] != 10 {
		t.Errorf("Sink executions = %d", rec.nodes["Sink"])
	}
}

// TestNoLockLeaks: after a run with errors and branches, every lock in the
// manager must be free (acquirable immediately by a fresh flow).
func TestNoLockLeaks(t *testing.T) {
	p := compileSrc(t, `
Gen () => (int v);
A (int v) => (int v);
B (int v) => (int v);
Sink (int v) => ();
source Gen => F;
F = A -> B -> Sink;
atomic F:{outer};
atomic A:{a};
atomic B:{b};
`)
	b := NewBindings().
		BindSource("Gen", counterSource(50)).
		BindNode("A", nopNode).
		BindNode("B", func(fl *Flow, in Record) (Record, error) {
			if in[0].(int)%3 == 0 {
				return nil, fmt.Errorf("fail %d", in[0])
			}
			return in, nil
		}).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
	s, err := NewServer(p, b, Config{Kind: ThreadPerFlow})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// All locks must be immediately acquirable.
	fl := s.newFlow(context.Background(), 0)
	for _, name := range []string{"outer", "a", "b"} {
		l := s.locks.lock(lockKey{name: name})
		if !l.tryAcquire(fl, true) {
			t.Errorf("lock %q still held after run", name)
		}
	}
}
