package runtime

// Tests for the functional options, Config defaults, and binding
// validation introduced with the lifecycle redesign.

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestConfigDefaults pins the withDefaults contract the options rely on.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if want := 4 * runtime.GOMAXPROCS(0); c.PoolSize != want {
		t.Errorf("PoolSize default = %d, want %d", c.PoolSize, want)
	}
	if c.Dispatchers != 1 {
		t.Errorf("Dispatchers default = %d, want 1", c.Dispatchers)
	}
	if c.AsyncWorkers != 16 {
		t.Errorf("AsyncWorkers default = %d, want 16", c.AsyncWorkers)
	}
	if c.QueueSample != 100*time.Millisecond {
		t.Errorf("QueueSample default = %v, want 100ms", c.QueueSample)
	}
	if c.Kind != ThreadPerFlow {
		t.Errorf("Kind default = %v, want thread", c.Kind)
	}
	if c.KeepAlive {
		t.Error("KeepAlive defaults on")
	}
	// The work-stealing engine defaults to one dispatcher per core.
	if cs := (Config{Kind: WorkStealing}).withDefaults(); cs.Dispatchers != runtime.GOMAXPROCS(0) {
		t.Errorf("steal Dispatchers default = %d, want GOMAXPROCS (%d)",
			cs.Dispatchers, runtime.GOMAXPROCS(0))
	}
	// Explicit settings survive withDefaults.
	c2 := Config{PoolSize: 3, Dispatchers: 2, AsyncWorkers: 5, QueueSample: time.Minute}.withDefaults()
	if c2.PoolSize != 3 || c2.Dispatchers != 2 || c2.AsyncWorkers != 5 ||
		c2.QueueSample != time.Minute {
		t.Errorf("explicit values clobbered: %+v", c2)
	}
	if cs := (Config{Kind: WorkStealing, Dispatchers: 3}).withDefaults(); cs.Dispatchers != 3 {
		t.Errorf("explicit steal Dispatchers clobbered: %d", cs.Dispatchers)
	}
}

// TestOptionsPopulateConfig: each With* option lands on its Config field
// through New, observable on the constructed server.
func TestOptionsPopulateConfig(t *testing.T) {
	p := compileSrc(t, pipelineSrc)
	obs := &recordingObserver{}
	b := NewBindings().
		BindSource("Gen", counterSource(1)).
		BindNode("Double", nopNode).
		BindNode("Sink", nopNode)
	s, err := New(p, b,
		WithEngine(EventDriven),
		WithPoolSize(7),
		WithDispatchers(2),
		WithAsyncWorkers(3),
		WithObserver(obs),
		WithKeepAlive(),
		WithQueueSampleInterval(time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	c := s.cfg
	if c.Kind != EventDriven || c.PoolSize != 7 || c.Dispatchers != 2 ||
		c.AsyncWorkers != 3 ||
		!c.KeepAlive || c.QueueSample != time.Second {
		t.Errorf("options not applied: %+v", c)
	}
	if c.Observer == nil || s.obs != Observer(obs) {
		t.Error("observer option not applied")
	}
}

// TestNewAppliesDefaults: New with no options equals the zero Config
// plus defaults — the "withDefaults equivalence" the options promise.
func TestNewAppliesDefaults(t *testing.T) {
	p := compileSrc(t, pipelineSrc)
	b := NewBindings().
		BindSource("Gen", counterSource(1)).
		BindNode("Double", nopNode).
		BindNode("Sink", nopNode)
	s, err := New(p, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Config{}).withDefaults(); s.cfg != want {
		t.Errorf("New() config = %+v, want %+v", s.cfg, want)
	}
	if s.obs != nil {
		t.Error("unobserved server resolved a non-nil observer plane")
	}
}

// TestValidateBindingErrors covers every BindingError class, including
// the MarkBlocking validation: a misspelled blocking name used to be
// silently ignored, leaving the event dispatcher to block on real I/O.
func TestValidateBindingErrors(t *testing.T) {
	p := compileSrc(t, `
Gen () => (int v);
Work (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Route -> Sink;
typedef big IsBig;
Route:[big] = Work;
Route:[_] = ;
session Gen SessOf;
`)
	complete := func() *Bindings {
		return NewBindings().
			BindSource("Gen", counterSource(1)).
			BindNode("Work", nopNode).
			BindNode("Sink", nopNode).
			BindPredicate("IsBig", func(any) bool { return true }).
			BindSession("SessOf", func(Record) uint64 { return 0 })
	}
	if _, err := NewServer(p, complete(), Config{}); err != nil {
		t.Fatalf("complete bindings rejected: %v", err)
	}
	cases := []struct {
		name       string
		b          *Bindings
		what, frag string
	}{
		{"missing predicate",
			NewBindings().
				BindSource("Gen", counterSource(1)).
				BindNode("Work", nopNode).BindNode("Sink", nopNode).
				BindSession("SessOf", func(Record) uint64 { return 0 }),
			"predicate", `"IsBig"`},
		{"missing session",
			NewBindings().
				BindSource("Gen", counterSource(1)).
				BindNode("Work", nopNode).BindNode("Sink", nopNode).
				BindPredicate("IsBig", func(any) bool { return true }),
			"session", `"SessOf"`},
		{"misspelled blocking node",
			complete().MarkBlocking("Wrok"),
			"blocking", `"Wrok"`},
		{"blocking mark on source",
			complete().MarkBlocking("Gen"),
			"blocking", `"Gen"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewServer(p, tc.b, Config{})
			if err == nil {
				t.Fatal("expected binding error")
			}
			var be *BindingError
			if !errors.As(err, &be) {
				t.Fatalf("error type = %T (%v)", err, err)
			}
			if be.What != tc.what {
				t.Errorf("What = %q, want %q", be.What, tc.what)
			}
			if got := err.Error(); !contains(got, tc.frag) {
				t.Errorf("error = %q, want substring %q", got, tc.frag)
			}
		})
	}
}

// TestMarkBlockingValidNamesAccepted: correctly spelled blocking marks
// on non-source nodes pass validation.
func TestMarkBlockingValidNamesAccepted(t *testing.T) {
	p := compileSrc(t, pipelineSrc)
	b := NewBindings().
		BindSource("Gen", counterSource(1)).
		BindNode("Double", nopNode).
		BindNode("Sink", nopNode).
		MarkBlocking("Double", "Sink")
	if _, err := NewServer(p, b, Config{}); err != nil {
		t.Fatalf("valid blocking marks rejected: %v", err)
	}
}

// TestMultiObserverComposition: nil folding and fan-out.
func TestMultiObserver(t *testing.T) {
	if MultiObserver(nil, nil) != nil {
		t.Error("MultiObserver(nil, nil) != nil")
	}
	a, b := &recordingObserver{}, &recordingObserver{}
	m := MultiObserver(a, nil, b)
	m.QueueDepth(ThreadPool, "admission", 3)
	if a.samples != 1 || b.samples != 1 {
		t.Errorf("fan-out samples = %d/%d, want 1/1", a.samples, b.samples)
	}
	single := MultiObserver(nil, a)
	if single != Observer(a) {
		t.Error("single observer not unwrapped")
	}
}
