package runtime

// Tests for the server lifecycle introduced with the Engine interface:
// Start/Shutdown/Wait, graceful in-flight drain on every registered
// engine, external admission with Inject, and the engine registry.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/core"
)

// allEngines lists the registered engines so lifecycle tests cover any
// future fourth engine automatically.
func allEngines() []EngineKind { return EngineKinds() }

// TestShutdownDrainsInFlight: on every engine, Shutdown must stop
// admission but let flows that already started run to their terminals —
// no accepted record may be lost.
func TestShutdownDrainsInFlight(t *testing.T) {
	for _, kind := range allEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, pipelineSrc)
			release := make(chan struct{})
			var entered atomic.Int64
			var sunk atomic.Int64
			b := NewBindings().
				BindSource("Gen", func(fl *Flow) (Record, error) {
					// Throttled so the wedge window admits tens of flows,
					// not an unbounded flood of goroutines/backlog.
					select {
					case <-fl.Ctx.Done():
						return nil, fl.Ctx.Err()
					case <-time.After(500 * time.Microsecond):
						return Record{1}, nil
					}
				}).
				BindNode("Double", func(fl *Flow, in Record) (Record, error) {
					entered.Add(1)
					<-release
					return in, nil
				}).
				BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
					sunk.Add(1)
					return nil, nil
				}).
				MarkBlocking("Double") // lets the event dispatcher admit several
			s, err := NewServer(p, b, Config{Kind: kind, PoolSize: 4, AsyncWorkers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(context.Background()); err != nil {
				t.Fatalf("Start: %v", err)
			}
			// Wait until flows are genuinely in flight, wedged in Double.
			for entered.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			done := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				done <- s.Shutdown(ctx)
			}()
			// Shutdown must block on the wedged flows, not return early.
			select {
			case err := <-done:
				t.Fatalf("Shutdown returned %v with flows still wedged", err)
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if err := s.Wait(); err != nil {
				t.Fatalf("Wait after clean Shutdown: %v", err)
			}
			st := s.Stats().Snapshot()
			if st.Completed != st.Started {
				t.Errorf("drain lost flows: started=%d completed=%d", st.Started, st.Completed)
			}
			if sunk.Load() != int64(st.Completed) {
				t.Errorf("sink saw %d, stats say %d", sunk.Load(), st.Completed)
			}
		})
	}
}

// TestShutdownDeadline: a flow wedged past the Shutdown deadline makes
// Shutdown return the context error while the run finishes later.
func TestShutdownDeadline(t *testing.T) {
	for _, kind := range allEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, pipelineSrc)
			release := make(chan struct{})
			var entered atomic.Int64
			b := NewBindings().
				BindSource("Gen", counterSource(1)).
				BindNode("Double", func(fl *Flow, in Record) (Record, error) {
					entered.Add(1)
					<-release
					return in, nil
				}).
				BindNode("Sink", nopNode).
				MarkBlocking("Double")
			s, err := NewServer(p, b, Config{Kind: kind, PoolSize: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			for entered.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
			}
			close(release)
			if err := s.Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if got := s.Stats().Snapshot().Completed; got != 1 {
				t.Errorf("completed = %d after late drain", got)
			}
		})
	}
}

// TestInjectRunsFlows: with KeepAlive, a server whose sources are
// exhausted still executes externally admitted records, and Inject is
// refused after Shutdown.
func TestInjectRunsFlows(t *testing.T) {
	for _, kind := range allEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, pipelineSrc)
			var mu sync.Mutex
			var got []int
			b := NewBindings().
				BindSource("Gen", counterSource(0)). // immediately exhausted
				BindNode("Double", func(fl *Flow, in Record) (Record, error) {
					return Record{in[0].(int) * 2}, nil
				}).
				BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
					mu.Lock()
					got = append(got, in[0].(int))
					mu.Unlock()
					return nil, nil
				})
			s, err := NewServer(p, b, Config{Kind: kind, PoolSize: 2, KeepAlive: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Inject("Gen", Record{1}); !errors.Is(err, ErrNotStarted) {
				t.Fatalf("Inject before Start = %v, want ErrNotStarted", err)
			}
			if err := s.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := s.Inject("NoSuchSource", Record{1}); err == nil {
				t.Fatal("Inject on unknown source succeeded")
			}
			for i := 1; i <= 25; i++ {
				if err := s.Inject("Gen", Record{i}); err != nil {
					t.Fatalf("Inject(%d): %v", i, err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			mu.Lock()
			n, sum := len(got), 0
			for _, v := range got {
				sum += v
			}
			mu.Unlock()
			if n != 25 {
				t.Fatalf("sink saw %d records, want 25", n)
			}
			if want := 2 * 25 * 26 / 2; sum != want {
				t.Errorf("sum = %d, want %d", sum, want)
			}
			if st := s.Stats().Snapshot(); st.Started != 25 || st.Completed != 25 {
				t.Errorf("stats = %+v", st)
			}
			// Admission after Shutdown must fail, not wedge or panic.
			if err := s.Inject("Gen", Record{99}); !errors.Is(err, ErrServerClosed) {
				t.Errorf("Inject after Shutdown = %v, want ErrServerClosed", err)
			}
		})
	}
}

// TestInjectAppliesSessionFunc: injected records go through the source's
// session function, so session-scoped constraints hold for them too.
func TestInjectAppliesSessionFunc(t *testing.T) {
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
		BindSource("Gen", counterSource(0)).
		BindSession("SessOf", func(rec Record) uint64 { return uint64(rec[0].(int) % 2) }).
		BindNode("Touch", func(fl *Flow, in Record) (Record, error) {
			*perSession[fl.Session]++ // serialized per session by the constraint
			return in, nil
		}).
		BindNode("Sink", nopNode)
	s, err := NewServer(p, b, Config{Kind: ThreadPerFlow, KeepAlive: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if err := s.Inject("Gen", Record{i}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if *perSession[0] != 50 || *perSession[1] != 50 {
		t.Errorf("per-session counts = %d/%d, want 50/50", *perSession[0], *perSession[1])
	}
}

// TestStartTwiceFails: servers are single-run.
func TestStartTwiceFails(t *testing.T) {
	s, _, _ := buildPipeline(t, ThreadPool, 1)
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err == nil {
		t.Error("second Start succeeded")
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitBeforeStart returns ErrNotStarted instead of blocking forever.
func TestWaitBeforeStart(t *testing.T) {
	s, _, _ := buildPipeline(t, ThreadPool, 1)
	if err := s.Wait(); !errors.Is(err, ErrNotStarted) {
		t.Errorf("Wait = %v, want ErrNotStarted", err)
	}
	if err := s.Shutdown(context.Background()); !errors.Is(err, ErrNotStarted) {
		t.Errorf("Shutdown = %v, want ErrNotStarted", err)
	}
}

// TestRunIsStartPlusWait: the legacy blocking entry point still
// completes bounded workloads and reports natural exhaustion as nil.
func TestRunIsStartPlusWait(t *testing.T) {
	s, got, mu := buildPipeline(t, ThreadPool, 10)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 10 {
		t.Fatalf("sink saw %d records", len(*got))
	}
}

// TestShutdownIdempotent: concurrent and repeated Shutdown calls all
// drain and return.
func TestShutdownIdempotent(t *testing.T) {
	s, _, _ := buildPipeline(t, EventDriven, 20)
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// --- engine registry ------------------------------------------------------

// TestEngineKindStringRoundTrip: every registered kind's String form
// parses back to the kind, and unregistered kinds format distinctly.
func TestEngineKindStringRoundTrip(t *testing.T) {
	kinds := EngineKinds()
	if len(kinds) < 3 {
		t.Fatalf("registered engines = %d, want >= 3", len(kinds))
	}
	for _, k := range kinds {
		name := k.String()
		back, ok := ParseEngineKind(name)
		if !ok || back != k {
			t.Errorf("round trip %v -> %q -> (%v, %v)", k, name, back, ok)
		}
	}
	if got := EngineKind(97).String(); got != "engine(97)" {
		t.Errorf("unregistered kind formats as %q", got)
	}
	if _, ok := ParseEngineKind("no-such-engine"); ok {
		t.Error("ParseEngineKind accepted an unknown name")
	}
}

// TestStealEngineRegistered pins the work-stealing engine's registry
// contract: "steal" resolves to WorkStealing and round-trips, so it is
// selectable everywhere ParseEngineKind is (flux options, fluxbench,
// example flags).
func TestStealEngineRegistered(t *testing.T) {
	k, ok := ParseEngineKind("steal")
	if !ok || k != WorkStealing {
		t.Fatalf(`ParseEngineKind("steal") = %v, %v; want WorkStealing`, k, ok)
	}
	if got := WorkStealing.String(); got != "steal" {
		t.Fatalf("WorkStealing.String() = %q", got)
	}
	// And the full lifecycle runs through it like any other engine.
	s, got, mu := buildPipeline(t, WorkStealing, 40)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 40 {
		t.Fatalf("sink saw %d records, want 40", len(*got))
	}
}

// TestRegisteredEngineRunsViaServer: a fourth engine plugged into the
// registry is selectable and driven entirely through the Server
// lifecycle — Server itself needs no change.
func TestRegisteredEngineRunsViaServer(t *testing.T) {
	registerInlineOnce.Do(func() {
		RegisterEngine(testKind, "inline-test", func(s *Server) Engine {
			return &inlineEngine{s: s, done: make(chan struct{})}
		})
	})
	s, got, mu := buildPipeline(t, testKind, 30)
	if s.cfg.Kind.String() != "inline-test" {
		t.Fatalf("kind name = %q", s.cfg.Kind)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 30 {
		t.Fatalf("sink saw %d records, want 30", len(*got))
	}
	if st := s.Stats().Snapshot(); st.Completed != 30 {
		t.Errorf("stats = %+v", st)
	}
}

const testKind EngineKind = 1000

var registerInlineOnce sync.Once

// inlineEngine is the simplest possible Engine: one goroutine per
// source, flows run inline on the source goroutine; Submit runs the
// flow on the caller's goroutine.
type inlineEngine struct {
	s    *Server
	ctx  context.Context
	done chan struct{}
}

func (e *inlineEngine) Start(ctx context.Context) error {
	e.ctx = ctx
	// startSources adds, as for the real engines, a stand-in source under
	// KeepAlive that holds Inject admitted after the sources exhaust.
	// Registration is global, so later -count rounds of
	// TestInjectRunsFlows run this engine too.
	e.s.startSources(ctx, e, func() { close(e.done) })
	return nil
}

func (e *inlineEngine) admit(poll *Flow, st *sourceState, rec Record) {
	fl := e.s.newFlow(e.ctx, st.sessionOf(rec))
	fl.adoptRecord(poll)
	e.s.runFlow(fl, st.tbl, rec)
}

func (e *inlineEngine) Submit(fl *Flow, rec Record) error {
	if e.ctx.Err() != nil {
		e.s.freeFlow(fl)
		return ErrServerClosed
	}
	e.s.runFlow(fl, fl.src.tbl, rec)
	return nil
}

func (e *inlineEngine) Drain(ctx context.Context) error { return awaitDone(e.done, ctx) }

// --- observer plane -------------------------------------------------------

// recordingObserver captures the full observer event stream.
type recordingObserver struct {
	mu       sync.Mutex
	outcomes map[FlowOutcome]int
	paths    map[FlowOutcome]map[uint64]int // outcome -> path ID -> count
	nodes    map[string]int
	samples  int
}

func (r *recordingObserver) FlowDone(g *core.FlatGraph, pathID uint64, outcome FlowOutcome, _ time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.outcomes == nil {
		r.outcomes = make(map[FlowOutcome]int)
		r.paths = make(map[FlowOutcome]map[uint64]int)
	}
	r.outcomes[outcome]++
	if r.paths[outcome] == nil {
		r.paths[outcome] = make(map[uint64]int)
	}
	r.paths[outcome][pathID]++
}

func (r *recordingObserver) NodeDone(g *core.FlatGraph, v *core.FlatNode, _ time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes == nil {
		r.nodes = make(map[string]int)
	}
	r.nodes[v.Node.Name]++
}

func (r *recordingObserver) QueueDepth(EngineKind, string, int) {
	r.mu.Lock()
	r.samples++
	r.mu.Unlock()
}

// TestObserverSeesDroppedFlows: flows terminated at an unmatched
// dispatch case must reach FlowDone with FlowDropped — the §5.2 blind
// spot this plane closes.
func TestObserverSeesDroppedFlows(t *testing.T) {
	src := `
Gen () => (int v);
Big (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Route -> Sink;
typedef big IsBig;
Route:[big] = Big;
`
	p := compileSrc(t, src)
	obs := &recordingObserver{}
	b := NewBindings().
		BindSource("Gen", counterSource(10)).
		BindPredicate("IsBig", func(v any) bool { return v.(int) > 5 }).
		BindNode("Big", nopNode).
		BindNode("Sink", nopNode)
	s, err := NewServer(p, b, Config{Kind: ThreadPool, PoolSize: 2, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.outcomes[FlowDropped] != 5 || obs.outcomes[FlowCompleted] != 5 {
		t.Errorf("outcomes = %v, want 5 dropped / 5 completed", obs.outcomes)
	}
}

// TestObserverQueueDepthSampling: engines with queues deliver depth
// samples while running.
func TestObserverQueueDepthSampling(t *testing.T) {
	for _, kind := range []EngineKind{ThreadPool, EventDriven, WorkStealing} {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, pipelineSrc)
			obs := &recordingObserver{}
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
				BindNode("Sink", nopNode)
			s, err := NewServer(p, b, Config{Kind: kind, PoolSize: 2, Observer: obs, QueueSample: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			if err := s.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Run = %v", err)
			}
			obs.mu.Lock()
			defer obs.mu.Unlock()
			if obs.samples == 0 {
				t.Error("no queue-depth samples delivered")
			}
		})
	}
}

// TestFlowOutcomeString covers the outcome labels.
func TestFlowOutcomeString(t *testing.T) {
	want := map[FlowOutcome]string{
		FlowCompleted:  "completed",
		FlowErrored:    "errored",
		FlowDropped:    "dropped",
		FlowOutcome(9): "unknown",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
}

// TestDropProfilerRouting: a dropped flow reaches the observer as
// FlowDropped with its partial path register, and that register can
// equal a complete path's ID — here the only completed path's. A path
// profile must therefore route drops by outcome into a bucket of their
// own (the telemetry plane's drop slot), never by ID into a path.
func TestDropProfilerRouting(t *testing.T) {
	p := compileSrc(t, `
Gen () => (int v);
Big (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Route -> Sink;
typedef big IsBig;
Route:[big] = Big;
`)
	obs := &recordingObserver{}
	b := NewBindings().
		BindSource("Gen", counterSource(10)).
		BindPredicate("IsBig", func(v any) bool { return v.(int) > 5 }).
		BindNode("Big", nopNode).
		BindNode("Sink", nopNode)
	s, err := NewServer(p, b, Config{Kind: ThreadPool, PoolSize: 2, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	drops, done := obs.paths[FlowDropped], obs.paths[FlowCompleted]
	if len(drops) != 1 || len(done) != 1 {
		t.Fatalf("paths by outcome = %v, want one dropped and one completed register", obs.paths)
	}
	for id, n := range drops {
		if done[id] != 5 || n != 5 {
			t.Errorf("drop register %d (x%d) does not alias the completed path (%v)", id, n, done)
		}
	}
}
