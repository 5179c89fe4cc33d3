package telemetry

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lang/parser"
	"github.com/flux-lang/flux/internal/runtime"
)

const pipelineSrc = `
Gen () => (int v);
Double (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Double -> Sink;
`

// compileSrc builds a fresh program (and therefore fresh *FlatGraph
// identities) from src.
func compileSrc(t *testing.T, src string) *core.Program {
	t.Helper()
	astProg, err := parser.Parse("telemetry_test.flux", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := core.Build(astProg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func compileProgram(t *testing.T) *core.Program { return compileSrc(t, pipelineSrc) }

func flowGraph(t *testing.T, p *core.Program) *core.FlatGraph {
	t.Helper()
	g := p.Graphs["Gen"]
	if g == nil {
		for _, gg := range p.Graphs {
			g = gg
			break
		}
	}
	if g == nil {
		t.Fatal("no flat graph")
	}
	return g
}

// TestTelemetryAggregation drives every observer entry point by hand
// and checks the snapshot: flow histogram totals, outcome counters,
// node histograms, stream windows, sheds, and conn registration.
func TestTelemetryAggregation(t *testing.T) {
	tel := New()
	g := flowGraph(t, compileProgram(t))

	for i := 0; i < 10; i++ {
		tel.FlowDone(g, 0, runtime.FlowCompleted, time.Millisecond)
	}
	tel.FlowDone(g, 0, runtime.FlowErrored, 2*time.Millisecond)
	tel.FlowDone(g, 0, runtime.FlowDropped, 3*time.Millisecond)
	tel.NodeDone(g, g.Nodes[0], 50*time.Microsecond)
	tel.QueueDepth(runtime.ThreadPool, "admission", 7)
	tel.QueueDepth(runtime.ThreadPool, "admission", 9)
	tel.ConnShed("webserver", "overload")
	tel.ConnShed("webserver", "overload")
	tel.ConnShed("webserver", "conn-limit")
	tel.RegisterConns("webserver", func() ConnStats {
		return ConnStats{Accepted: 5, Admitted: 4, Shed: 1, Live: 2}
	})

	s := tel.Snapshot()
	if len(s.Graphs) != 1 {
		t.Fatalf("graphs = %d, want 1", len(s.Graphs))
	}
	gs := s.Graphs[0]
	if gs.Graph != g.Source.Name || gs.Instances != 1 {
		t.Errorf("graph %q instances %d", gs.Graph, gs.Instances)
	}
	if gs.Flows.Count != 12 {
		t.Errorf("flow count = %d, want 12", gs.Flows.Count)
	}
	if gs.Outcomes["completed"] != 10 || gs.Outcomes["errored"] != 1 || gs.Outcomes["dropped"] != 1 {
		t.Errorf("outcomes = %v", gs.Outcomes)
	}
	if len(gs.Nodes) != 1 || gs.Nodes[0].Hist.Count != 1 {
		t.Errorf("nodes = %+v", gs.Nodes)
	}

	if len(s.Streams) != 1 {
		t.Fatalf("streams = %d, want 1", len(s.Streams))
	}
	ss := s.Streams[0]
	if ss.Queue != "admission" || ss.Last != 9 || len(ss.Samples) != 2 || ss.Counter {
		t.Errorf("stream = %+v", ss)
	}

	if len(s.Sheds) != 2 {
		t.Fatalf("sheds = %+v", s.Sheds)
	}
	// Sorted server then reason: conn-limit before overload.
	if s.Sheds[0].Reason != "conn-limit" || s.Sheds[0].Count != 1 ||
		s.Sheds[1].Reason != "overload" || s.Sheds[1].Count != 2 {
		t.Errorf("sheds = %+v", s.Sheds)
	}
	if tel.ShedTotal() != 3 {
		t.Errorf("shed total = %d", tel.ShedTotal())
	}

	if len(s.Conns) != 1 || s.Conns[0].Stats.Accepted != 5 || s.Conns[0].Stats.Live != 2 {
		t.Errorf("conns = %+v", s.Conns)
	}
}

// TestSnapshotMergesInstancesByName: two graph instances compiled from
// the same source merge into one logical graph in the snapshot — the
// shape a benchmark sweep produces by starting many servers of the
// same program.
func TestSnapshotMergesInstancesByName(t *testing.T) {
	tel := New()
	g1 := flowGraph(t, compileProgram(t))
	g2 := flowGraph(t, compileProgram(t))
	if g1 == g2 {
		t.Fatal("expected distinct graph instances")
	}
	tel.FlowDone(g1, 0, runtime.FlowCompleted, time.Millisecond)
	tel.FlowDone(g2, 0, runtime.FlowCompleted, 2*time.Millisecond)
	tel.NodeDone(g1, g1.Nodes[0], time.Microsecond)
	tel.NodeDone(g2, g2.Nodes[0], time.Microsecond)

	s := tel.Snapshot()
	if len(s.Graphs) != 1 {
		t.Fatalf("graphs = %d, want 1 merged", len(s.Graphs))
	}
	gs := s.Graphs[0]
	if gs.Instances != 2 || gs.Flows.Count != 2 {
		t.Errorf("instances = %d flows = %d", gs.Instances, gs.Flows.Count)
	}
	// The two instances' same-labelled node histograms merge.
	if len(gs.Nodes) != 1 || gs.Nodes[0].Hist.Count != 2 {
		t.Errorf("merged nodes = %+v", gs.Nodes)
	}
}

// TestCtrlStreams: only ctrl/* streams surface, with full windows.
func TestCtrlStreams(t *testing.T) {
	tel := New()
	tel.QueueDepth(runtime.EventDriven, runtime.CtrlWatermark, 64)
	tel.QueueDepth(runtime.EventDriven, runtime.CtrlWatermark, 32)
	tel.QueueDepth(runtime.EventDriven, runtime.CtrlWindowP95, 1500)
	tel.QueueDepth(runtime.EventDriven, "admission", 7)
	tel.QueueDepth(runtime.EventDriven, runtime.QueueSteals, 3)

	ctrl := tel.CtrlStreams()
	if len(ctrl) != 2 {
		t.Fatalf("ctrl streams = %d, want 2", len(ctrl))
	}
	if ctrl[0].Queue != runtime.CtrlWindowP95 || ctrl[1].Queue != runtime.CtrlWatermark {
		t.Errorf("ctrl order = %q, %q", ctrl[0].Queue, ctrl[1].Queue)
	}
	if ctrl[1].Last != 32 || len(ctrl[1].Samples) != 2 {
		t.Errorf("watermark window = %+v", ctrl[1])
	}
}

// TestTraceSampling: with 1-in-1 sampling every terminal lands in the
// ring; completed flows carry a rendered path label, dropped flows do
// not (their register is a partial route, not a path).
func TestTraceSampling(t *testing.T) {
	tel := NewSampled(1)
	g := flowGraph(t, compileProgram(t))
	tel.FlowDone(g, 0, runtime.FlowCompleted, time.Millisecond)
	tel.FlowDone(g, 0, runtime.FlowDropped, time.Millisecond)

	traces := tel.Traces()
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	if traces[0].Path == "" || traces[0].Outcome != "completed" {
		t.Errorf("completed trace = %+v", traces[0])
	}
	if traces[1].Path != "" || traces[1].Outcome != "dropped" {
		t.Errorf("dropped trace = %+v", traces[1])
	}

	// Sampling disabled: no traces.
	none := NewSampled(0)
	none.FlowDone(g, 0, runtime.FlowCompleted, time.Millisecond)
	if got := none.Traces(); len(got) != 0 {
		t.Errorf("unsampled traces = %d", len(got))
	}
}

// TestObserverPathZeroAlloc: after first-sight registration, every
// record-path entry point — FlowDone (including its 1-in-1 trace
// write, a drop, and an ID past the path slots), NodeDone, QueueDepth,
// ConnShed — is allocation-free.
func TestObserverPathZeroAlloc(t *testing.T) {
	tel := NewSampled(1)
	g := flowGraph(t, compileProgram(t))
	// Warm the copy-on-write registries.
	tel.FlowDone(g, 0, runtime.FlowCompleted, time.Millisecond)
	tel.NodeDone(g, g.Nodes[0], time.Microsecond)
	tel.QueueDepth(runtime.ThreadPool, "admission", 1)
	tel.ConnShed("webserver", "overload")

	if n := testing.AllocsPerRun(1000, func() {
		tel.FlowDone(g, 0, runtime.FlowCompleted, time.Millisecond)
	}); n != 0 {
		t.Errorf("FlowDone allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tel.FlowDone(g, 0, runtime.FlowDropped, time.Millisecond)
	}); n != 0 {
		t.Errorf("FlowDone (drop) allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tel.FlowDone(g, maxPathSlots, runtime.FlowErrored, time.Millisecond)
	}); n != 0 {
		t.Errorf("FlowDone (past the path slots) allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tel.NodeDone(g, g.Nodes[0], time.Microsecond)
	}); n != 0 {
		t.Errorf("NodeDone allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tel.QueueDepth(runtime.ThreadPool, "admission", 5)
	}); n != 0 {
		t.Errorf("QueueDepth allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tel.ConnShed("webserver", "overload")
	}); n != 0 {
		t.Errorf("ConnShed allocates %v/op", n)
	}
}

// TestTelemetryOnAllEngines runs a real server on every registered
// engine with a telemetry plane attached — the cross-engine smoke the
// race job executes with -race.
func TestTelemetryOnAllEngines(t *testing.T) {
	kinds := []runtime.EngineKind{
		runtime.ThreadPerFlow, runtime.ThreadPool, runtime.EventDriven, runtime.WorkStealing,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			tel := NewSampled(1)
			p := compileProgram(t)
			var i atomic.Int64
			b := runtime.NewBindings().
				BindSource("Gen", func(fl *runtime.Flow) (runtime.Record, error) {
					v := i.Add(1)
					if v > 200 {
						return nil, runtime.ErrStop
					}
					return runtime.Record{int(v)}, nil
				}).
				BindNode("Double", func(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
					return runtime.Record{in[0].(int) * 2}, nil
				}).
				BindNode("Sink", func(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
					return nil, nil
				})
			srv, err := runtime.New(p, b,
				runtime.WithEngine(kind),
				runtime.WithObserver(tel),
				runtime.WithQueueSampleInterval(time.Millisecond),
			)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Run(ctx); err != nil {
				t.Fatal(err)
			}
			s := tel.Snapshot()
			if len(s.Graphs) != 1 || s.Graphs[0].Outcomes["completed"] != 200 {
				t.Fatalf("snapshot graphs = %+v", s.Graphs)
			}
			if len(s.Graphs[0].Nodes) == 0 {
				t.Error("no node histograms recorded")
			}
			if len(tel.Traces()) == 0 {
				t.Error("no traces sampled at 1-in-1")
			}
		})
	}
}

// BenchmarkTelemetryFlowDone is the benchdiff-gated record path: it
// must report 0 allocs/op.
func BenchmarkTelemetryFlowDone(b *testing.B) {
	tel := New()
	astProg, err := parser.Parse("bench.flux", pipelineSrc)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Build(astProg)
	if err != nil {
		b.Fatal(err)
	}
	var g *core.FlatGraph
	for _, gg := range p.Graphs {
		g = gg
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel.FlowDone(g, uint64(i)&3, runtime.FlowCompleted, time.Millisecond)
	}
}

// BenchmarkTelemetryNodeDone measures the per-node record path.
func BenchmarkTelemetryNodeDone(b *testing.B) {
	tel := New()
	astProg, err := parser.Parse("bench.flux", pipelineSrc)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Build(astProg)
	if err != nil {
		b.Fatal(err)
	}
	var g *core.FlatGraph
	for _, gg := range p.Graphs {
		g = gg
	}
	n := g.Nodes[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel.NodeDone(g, n, time.Microsecond)
	}
}
