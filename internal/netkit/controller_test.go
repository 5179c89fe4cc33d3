package netkit

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/runtime"
)

// feedServed pushes n completed-flow latency samples through the
// controller's Observer hot path.
func feedServed(c *Controller, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		c.FlowDone(nil, 0, runtime.FlowCompleted, d)
	}
}

// testController builds a controller over a fresh gate with a 30ms
// target; the assertions below predict its steps from the control
// constants.
func testController(t *testing.T, initialWM int) (*Controller, *Gate) {
	t.Helper()
	g := NewGate(initialWM)
	c, err := NewController(ControllerConfig{Target: 30 * time.Millisecond}, g, nil)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return c, g
}

// TestControllerAIMDStepBounds: over the SLO the watermark halves per
// step and floors at ctrlMinWatermark; under it the watermark grows by
// exactly ctrlStep and caps at ctrlMaxWatermark.
func TestControllerAIMDStepBounds(t *testing.T) {
	c, g := testController(t, 256)

	// Multiplicative decrease: 256 → 128 → 64 → 32 → 16 → 8, floor 8.
	for _, want := range []int{128, 64, 32, 16, 8, 8, 8} {
		feedServed(c, 64, 100*time.Millisecond) // p95 far over 30ms
		d := c.Tick(100 * time.Millisecond)
		if d.Watermark != want || g.Watermark() != want {
			t.Fatalf("decrease: got wm %d (gate %d), want %d", d.Watermark, g.Watermark(), want)
		}
	}

	// Additive increase: 8 → 12 → 16 → ... capped at ctrlMaxWatermark.
	for want := ctrlMinWatermark + ctrlStep; want <= ctrlMaxWatermark; want += ctrlStep {
		feedServed(c, 64, time.Millisecond) // p95 far under 30ms
		if d := c.Tick(100 * time.Millisecond); d.Watermark != want {
			t.Fatalf("increase: got wm %d, want %d", d.Watermark, want)
		}
	}
	for i := 0; i < 3; i++ {
		feedServed(c, 64, time.Millisecond)
		if d := c.Tick(100 * time.Millisecond); d.Watermark != ctrlMaxWatermark {
			t.Fatalf("ceiling: got wm %d, want %d", d.Watermark, ctrlMaxWatermark)
		}
	}
}

// TestControllerHysteresisHolds: p95 noise inside the Target±Band dead
// zone must not move the watermark — the no-flapping guarantee.
func TestControllerHysteresisHolds(t *testing.T) {
	c, g := testController(t, 64)
	for i := 0; i < 20; i++ {
		// Alternate samples 10% under and 10% over target: the window
		// p95 lands ~1.1×target, inside the 15% band.
		for j := 0; j < 32; j++ {
			d := 27 * time.Millisecond
			if j%2 == 0 {
				d = 33 * time.Millisecond
			}
			feedServed(c, 1, d)
		}
		if dec := c.Tick(100 * time.Millisecond); dec.Watermark != 64 {
			t.Fatalf("tick %d: watermark moved to %d on boundary noise (p95 %v)",
				i, dec.Watermark, dec.P95)
		}
	}
	if g.Watermark() != 64 {
		t.Fatalf("gate watermark drifted to %d", g.Watermark())
	}
}

// TestControllerRecoveryAfterLoadDrop: a latency storm collapses the
// watermark; once load drops and served latency returns under the SLO,
// additive increase restores admission.
func TestControllerRecoveryAfterLoadDrop(t *testing.T) {
	c, _ := testController(t, 256)
	for i := 0; i < 6; i++ {
		feedServed(c, 64, 200*time.Millisecond)
		c.Tick(100 * time.Millisecond)
	}
	if wm := c.Tick(100 * time.Millisecond).Watermark; wm != 8 {
		t.Fatalf("storm: watermark %d, want floor 8", wm)
	}
	// Load drops: latency is healthy again. The controller must walk
	// back up, +ctrlStep per interval, until it re-reaches the ceiling.
	want := (ctrlMaxWatermark - ctrlMinWatermark) / ctrlStep
	steps := 0
	for {
		feedServed(c, 64, 2*time.Millisecond)
		d := c.Tick(100 * time.Millisecond)
		steps++
		if d.Watermark == ctrlMaxWatermark {
			break
		}
		if steps > 2*want {
			t.Fatalf("no recovery after %d steps (wm %d)", steps, d.Watermark)
		}
	}
	if steps != want {
		t.Fatalf("recovery took %d steps, want exactly %d (additive step bound)", steps, want)
	}
}

// TestControllerHoldsUnderMinSamples: a thin window is noise, not
// signal — the previous decision stands.
func TestControllerHoldsUnderMinSamples(t *testing.T) {
	c, _ := testController(t, 64)
	feedServed(c, ctrlMinSamples-1, 500*time.Millisecond) // too thin, however slow
	d := c.Tick(100 * time.Millisecond)
	if d.Watermark != 64 || d.P95 != 0 {
		t.Fatalf("thin window acted: %+v", d)
	}
	if d.Samples != ctrlMinSamples-1 {
		t.Fatalf("samples = %d, want %d", d.Samples, ctrlMinSamples-1)
	}
}

// TestControllerConnCapFollowsWatermark: with a plane attached, every
// watermark decision re-derives the live-connection cap.
func TestControllerConnCapFollowsWatermark(t *testing.T) {
	g := NewGate(64)
	p, err := Listen(Config{Admit: func(c *Conn) error { c.Close(); return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(context.Background()) // never started: closes the listener only
	c, err := NewController(ControllerConfig{Target: 30 * time.Millisecond}, g, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.MaxConns(); got != 128 {
		t.Fatalf("initial cap %d, want 2×64", got)
	}
	feedServed(c, 64, 100*time.Millisecond)
	d := c.Tick(100 * time.Millisecond)
	if d.Watermark != 32 || d.ConnCap != 64 || p.MaxConns() != 64 {
		t.Fatalf("after decrease: %+v, plane cap %d", d, p.MaxConns())
	}
}

// trajectorySink records the controller's decision streams.
type trajectorySink struct {
	mu      sync.Mutex
	samples map[string][]int
}

func (s *trajectorySink) QueueDepth(_ runtime.EngineKind, queue string, depth int) {
	s.mu.Lock()
	if s.samples == nil {
		s.samples = make(map[string][]int)
	}
	s.samples[queue] = append(s.samples[queue], depth)
	s.mu.Unlock()
}
func (s *trajectorySink) FlowDone(_ *core.FlatGraph, _ uint64, _ runtime.FlowOutcome, _ time.Duration) {
}
func (s *trajectorySink) NodeDone(*core.FlatGraph, *core.FlatNode, time.Duration) {}

// TestControllerTrajectoryStreams: every step emits one sample of each
// ctrl/* stream to the sink, and the gate (sharing the observer plane)
// must not sum those gauges as backlog.
func TestControllerTrajectoryStreams(t *testing.T) {
	g := NewGate(64)
	sink := &trajectorySink{}
	c, err := NewController(ControllerConfig{Target: 30 * time.Millisecond, Sink: sink}, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	feedServed(c, 64, 100*time.Millisecond)
	c.Tick(100 * time.Millisecond)
	feedServed(c, 64, time.Millisecond)
	c.Tick(100 * time.Millisecond)

	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, stream := range []string{
		runtime.CtrlWatermark, runtime.CtrlConnCap, runtime.CtrlWindowP95, runtime.CtrlShedRate,
	} {
		if got := len(sink.samples[stream]); got != 2 {
			t.Errorf("stream %s: %d samples, want 2", stream, got)
		}
	}
	if wm := sink.samples[runtime.CtrlWatermark]; wm[0] != 32 || wm[1] != 32+ctrlStep {
		t.Errorf("watermark trajectory %v, want [32 %d]", wm, 32+ctrlStep)
	}

	// The gate ignores controller gauges on the shared surface.
	g2 := NewGate(10)
	g2.QueueDepth(runtime.EventDriven, runtime.CtrlWindowP95, 1_000_000)
	if g2.Overloaded() {
		t.Error("gate summed a ctrl/* gauge as backlog")
	}
}

// TestControllerShedRate: the controller differentiates its plane's
// cumulative shed count into a per-second rate over the step window.
func TestControllerShedRate(t *testing.T) {
	g := NewGate(64)
	p, err := Listen(Config{Admit: func(c *Conn) error { c.Close(); return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(context.Background()) // never started: closes the listener only
	c, err := NewController(ControllerConfig{Target: 30 * time.Millisecond}, g, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p.CountShed("test")
	}
	if d := c.Tick(500 * time.Millisecond); d.ShedRate != 100 {
		t.Fatalf("shed rate %.1f, want 100/s", d.ShedRate)
	}
	if d := c.Tick(500 * time.Millisecond); d.ShedRate != 0 {
		t.Fatalf("shed rate %.1f after quiet window, want 0", d.ShedRate)
	}
}

// TestControllerFlowDoneZeroAlloc pins the acceptance criterion: the
// controller's FlowDone must add zero allocations to the flow-terminal
// hot path.
func TestControllerFlowDoneZeroAlloc(t *testing.T) {
	c, _ := testController(t, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		c.FlowDone(nil, 0, runtime.FlowCompleted, 5*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("FlowDone allocates %.1f per call, want 0", allocs)
	}
}

// BenchmarkControllerFlowDone rides the benchdiff gate alongside
// BenchmarkInject: the served-latency ring write is the only cost the
// controller adds per flow terminal.
func BenchmarkControllerFlowDone(b *testing.B) {
	g := NewGate(64)
	c, err := NewController(ControllerConfig{Target: 30 * time.Millisecond}, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.FlowDone(nil, 0, runtime.FlowCompleted, 5*time.Millisecond)
	}
}

// TestGateDepthStaleness is the regression test for the wedged-verdict
// bug: a queue that stops sampling (engine drained or swapped on a
// lifecycle transition) must age out of the aggregate instead of
// pinning the gate overloaded forever.
func TestGateDepthStaleness(t *testing.T) {
	g := NewGate(10)
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }

	// A burst trips the gate, then that engine's sampler dies.
	g.QueueDepth(runtime.EventDriven, "events", 100)
	if !g.Overloaded() {
		t.Fatal("gate did not trip")
	}

	// A different, healthy queue keeps sampling low depths. Before
	// aging, the dead stream's 100 stayed in the sum forever and the
	// verdict could never clear.
	now = now.Add(DepthTTL + time.Second)
	g.QueueDepth(runtime.WorkStealing, "d0", 1)
	if g.Overloaded() {
		t.Fatal("stale queue sample wedged the overload verdict")
	}

	// Refresh alone (no live samplers at all — full engine swap) must
	// also decay the verdict.
	g.QueueDepth(runtime.WorkStealing, "d0", 100)
	if !g.Overloaded() {
		t.Fatal("gate did not re-trip")
	}
	now = now.Add(DepthTTL + time.Second)
	g.Refresh()
	if g.Overloaded() {
		t.Fatal("Refresh did not age out a dead engine's samples")
	}

	// A live stream refreshing inside the TTL is never aged.
	g.QueueDepth(runtime.EventDriven, "events", 100)
	now = now.Add(DepthTTL / 2)
	g.QueueDepth(runtime.EventDriven, "events", 100)
	now = now.Add(DepthTTL / 2)
	g.Refresh()
	if !g.Overloaded() {
		t.Fatal("live stream aged out inside its TTL")
	}
}

// TestGateSetWatermarkReevaluates: retuning the watermark re-judges the
// samples already held, so admission reacts before the next sample.
func TestGateSetWatermarkReevaluates(t *testing.T) {
	g := NewGate(100)
	g.QueueDepth(runtime.EventDriven, "events", 50)
	if g.Overloaded() {
		t.Fatal("tripped under watermark")
	}
	g.SetWatermark(40)
	if !g.Overloaded() {
		t.Fatal("lowered watermark did not re-trip on held samples")
	}
	g.SetWatermark(60)
	if g.Overloaded() {
		t.Fatal("raised watermark did not clear on held samples")
	}
}
