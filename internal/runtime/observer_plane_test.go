package runtime

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/core"
)

// shedCounter is an observer that also implements ShedObserver.
type shedCounter struct {
	recordingObserver
	sheds []string
}

func (s *shedCounter) ConnShed(server, reason string) {
	s.sheds = append(s.sheds, server+"/"+reason)
}

// TestWithAddedObserver: composing onto an empty config installs
// directly; composing onto an occupied config fans out; nil is a no-op.
func TestWithAddedObserver(t *testing.T) {
	var c Config
	WithAddedObserver(nil)(&c)
	if c.Observer != nil {
		t.Error("nil observer installed")
	}

	a := &recordingObserver{}
	WithAddedObserver(a)(&c)
	if c.Observer != Observer(a) {
		t.Error("first observer not installed directly")
	}

	b := &recordingObserver{}
	WithAddedObserver(b)(&c)
	c.Observer.QueueDepth(ThreadPool, "admission", 1)
	if a.samples != 1 || b.samples != 1 {
		t.Errorf("fan-out samples = %d/%d, want 1/1", a.samples, b.samples)
	}
}

// TestMultiObserverConnShedNested: ConnShed must reach shed-aware
// members through arbitrarily nested compositions — the shape servers
// build when layering a controller over a gate over telemetry — while
// shed-blind members are skipped, not crashed into.
func TestMultiObserverConnShedNested(t *testing.T) {
	inner := &shedCounter{}
	outer := &shedCounter{}
	blind := &recordingObserver{}

	// controller ∘ (gate ∘ telemetry) style nesting.
	nested := MultiObserver(MultiObserver(blind, inner), outer)
	ConnShed(nested, "webserver", "overload")
	ConnShed(nested, "webserver", "conn-limit")

	if len(inner.sheds) != 2 || inner.sheds[0] != "webserver/overload" {
		t.Errorf("inner sheds = %v", inner.sheds)
	}
	if len(outer.sheds) != 2 || outer.sheds[1] != "webserver/conn-limit" {
		t.Errorf("outer sheds = %v", outer.sheds)
	}

	// A composition with no shed-aware member ignores the event.
	ConnShed(MultiObserver(blind, &recordingObserver{}), "x", "y")

	// And a nil observer is a no-op, not a panic.
	ConnShed(nil, "x", "y")
}

// TestCounterQueue pins the stream-name classification the admission
// gate depends on: counters and controller gauges must never be summed
// into backlog depth.
func TestCounterQueue(t *testing.T) {
	counters := []string{
		QueueSteals,
		CtrlWatermark, CtrlConnCap, CtrlWindowP95, CtrlShedRate,
		CtrlStreamPrefix + "anything",
		MsgStreamPrefix + "piece",
	}
	for _, q := range counters {
		if !CounterQueue(q) {
			t.Errorf("CounterQueue(%q) = false, want true", q)
		}
	}
	depths := []string{"admission", "pool", "events", "steal/0", ""}
	for _, q := range depths {
		if CounterQueue(q) {
			t.Errorf("CounterQueue(%q) = true, want false", q)
		}
	}
}

// queueKinds records which engine kinds report each queue-depth stream.
type queueKinds struct {
	mu    sync.Mutex
	kinds map[string]map[EngineKind]bool
}

func (q *queueKinds) FlowDone(*core.FlatGraph, uint64, FlowOutcome, time.Duration) {}
func (q *queueKinds) NodeDone(*core.FlatGraph, *core.FlatNode, time.Duration)      {}
func (q *queueKinds) QueueDepth(kind EngineKind, queue string, _ int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.kinds[queue] == nil {
		q.kinds[queue] = map[EngineKind]bool{}
	}
	q.kinds[queue][kind] = true
}

func (q *queueKinds) reported(queue string, kind EngineKind) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.kinds[queue][kind]
}

// TestQueueDepthCarriesServerKind: the event-driven and work-stealing
// kinds share one engine, and its queue-depth samples carry the kind the
// server was built with — an observed EventDriven server reports its
// dispatcher, injection and offload queues as EventDriven, never as
// WorkStealing.
func TestQueueDepthCarriesServerKind(t *testing.T) {
	p := compileSrc(t, pipelineSrc)
	b := NewBindings().
		BindSource("Gen", func(fl *Flow) (Record, error) { return nil, ErrStop }).
		BindNode("Double", nopNode).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) { return nil, nil })
	q := &queueKinds{kinds: map[string]map[EngineKind]bool{}}
	s, err := NewServer(p, b, Config{Kind: EventDriven, Observer: q, KeepAlive: true, QueueSample: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	queues := []string{"disp0", "inject", "async"}
	deadline := time.Now().Add(5 * time.Second)
	for _, name := range queues {
		for !q.reported(name, EventDriven) {
			if time.Now().After(deadline) {
				t.Fatalf("no %q sample reported as %s", name, EventDriven)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	_ = s.Wait()
	for _, name := range append(queues, QueueSteals) {
		if q.reported(name, WorkStealing) {
			t.Errorf("%q sampled as %s on an %s server", name, WorkStealing, EventDriven)
		}
	}
}
