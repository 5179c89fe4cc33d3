package flux_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	flux "github.com/flux-lang/flux"
)

const apiProgram = `
Gen () => (int v);
Double (int v) => (int v);
Route (int v) => (int v);
Big (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Double -> Split -> Sink;
typedef big IsBig;
Split:[big] = Big;
Split:[_] = Route;
atomic Sink:{out};
`

func TestCompileAndRunPublicAPI(t *testing.T) {
	prog, err := flux.Compile("api.flux", apiProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Sources) != 1 || prog.Sources[0].Node.Name != "Gen" {
		t.Fatalf("sources = %v", prog.Sources)
	}

	var n atomic.Int64
	var sunk atomic.Int64
	b := flux.NewBindings().
		BindSource("Gen", func(fl *flux.Flow) (flux.Record, error) {
			v := n.Add(1)
			if v > 20 {
				return nil, flux.ErrStop
			}
			return flux.Record{int(v)}, nil
		}).
		BindPredicate("IsBig", func(v any) bool { return v.(any).(int) > 20 }).
		BindNode("Double", func(fl *flux.Flow, in flux.Record) (flux.Record, error) {
			return flux.Record{in[0].(int) * 2}, nil
		}).
		BindNode("Big", passthrough).
		BindNode("Route", passthrough).
		BindNode("Sink", func(fl *flux.Flow, in flux.Record) (flux.Record, error) {
			sunk.Add(1)
			return nil, nil
		})
	srv, err := flux.New(prog, b, flux.WithEngine(flux.ThreadPool), flux.WithPoolSize(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatal(err)
	}
	if sunk.Load() != 20 {
		t.Errorf("sink executions = %d", sunk.Load())
	}
}

func passthrough(fl *flux.Flow, in flux.Record) (flux.Record, error) { return in, nil }

func TestCompileErrorsSurface(t *testing.T) {
	_, err := flux.Compile("bad.flux", `source X => Y;`)
	if err == nil || !strings.Contains(err.Error(), "undefined node") {
		t.Errorf("error = %v", err)
	}
}

func TestProfilerThroughPublicAPI(t *testing.T) {
	prog, err := flux.Compile("p.flux", `
Gen () => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Sink;
`)
	if err != nil {
		t.Fatal(err)
	}
	tel := flux.NewTelemetry()
	var n atomic.Int64
	b := flux.NewBindings().
		BindSource("Gen", func(fl *flux.Flow) (flux.Record, error) {
			if n.Add(1) > 5 {
				return nil, flux.ErrStop
			}
			return flux.Record{1}, nil
		}).
		BindNode("Sink", func(fl *flux.Flow, in flux.Record) (flux.Record, error) { return nil, nil })
	srv, err := flux.New(prog, b, flux.WithEngine(flux.ThreadPerFlow), flux.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	g := prog.Graphs["Gen"]
	rows := tel.PathProfile(g, flux.ByCount, 0).Paths
	if len(rows) != 1 || rows[0].Count != 5 {
		t.Errorf("hot paths = %+v", rows)
	}
	if rows[0].Label != "Gen -> Sink" {
		t.Errorf("label = %q", rows[0].Label)
	}
}

func TestSimulateThroughPublicAPI(t *testing.T) {
	prog, err := flux.Compile("s.flux", `
Arrive () => (int v);
Serve (int v) => ();
source Arrive => Flow;
Flow = Serve;
`)
	if err != nil {
		t.Fatal(err)
	}
	res := flux.Simulate(prog, flux.SimParams{
		CPUs: 1, Duration: 50, Warmup: 5, Seed: 1,
		Sources:  map[string]flux.SimSourceParams{"Arrive": {Rate: 100, Exponential: true}},
		NodeTime: map[string]float64{"Serve": 0.001},
	})
	if res.Throughput < 80 || res.Throughput > 120 {
		t.Errorf("throughput = %.1f, want ~100", res.Throughput)
	}
}

func TestCodegenThroughPublicAPI(t *testing.T) {
	prog, err := flux.Compile("g.flux", apiProgram)
	if err != nil {
		t.Fatal(err)
	}
	if out := flux.GenerateStubs(prog, "pkg"); !strings.Contains(out, "package pkg") {
		t.Error("stubs missing package clause")
	}
	if out := flux.GenerateDOT(prog); !strings.Contains(out, "digraph flux") {
		t.Error("dot missing digraph")
	}
	if out := flux.GenerateSimulatorSource(prog); !strings.Contains(out, "processor->reserve()") {
		t.Error("simulator source missing reserve")
	}
}

func TestIntervalSourcePublicAPI(t *testing.T) {
	src := flux.IntervalSource(10 * time.Millisecond)
	fl := &flux.Flow{Ctx: context.Background()}
	start := time.Now()
	rec, err := src(fl)
	if err != nil || len(rec) != 1 {
		t.Fatalf("rec=%v err=%v", rec, err)
	}
	if time.Since(start) < 8*time.Millisecond {
		t.Error("interval source fired early")
	}
}

// TestLifecycleAndObserverPublicAPI drives the full redesigned surface:
// options, Start, Inject with KeepAlive, graceful Shutdown, Wait, and
// the unified observer plane.
func TestLifecycleAndObserverPublicAPI(t *testing.T) {
	prog, err := flux.Compile("l.flux", `
Gen () => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Sink;
`)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes atomic.Int64
	obs := countingObserver{n: &outcomes}
	var sunk atomic.Int64
	b := flux.NewBindings().
		BindSource("Gen", func(fl *flux.Flow) (flux.Record, error) {
			return nil, flux.ErrStop
		}).
		BindNode("Sink", func(fl *flux.Flow, in flux.Record) (flux.Record, error) {
			sunk.Add(1)
			return nil, nil
		})
	srv, err := flux.New(prog, b,
		flux.WithEngine(flux.EventDriven),
		flux.WithKeepAlive(),
		flux.WithObserver(obs),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := srv.Inject("Gen", flux.Record{i}); err != nil {
			t.Fatalf("Inject: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if sunk.Load() != 10 {
		t.Errorf("sink executions = %d, want 10", sunk.Load())
	}
	if outcomes.Load() != 10 {
		t.Errorf("observer FlowDone count = %d, want 10", outcomes.Load())
	}
	if err := srv.Inject("Gen", flux.Record{1}); err != flux.ErrServerClosed {
		t.Errorf("Inject after Shutdown = %v, want ErrServerClosed", err)
	}
	k, ok := flux.ParseEngineKind("event")
	if !ok || k != flux.EventDriven {
		t.Errorf("ParseEngineKind(event) = %v, %v", k, ok)
	}
	k, ok = flux.ParseEngineKind("steal")
	if !ok || k != flux.WorkStealing {
		t.Errorf("ParseEngineKind(steal) = %v, %v", k, ok)
	}
}

// countingObserver counts FlowDone events through the public Observer
// type.
type countingObserver struct{ n *atomic.Int64 }

func (c countingObserver) FlowDone(*flux.FlatGraph, uint64, flux.FlowOutcome, time.Duration) {
	c.n.Add(1)
}
func (c countingObserver) NodeDone(*flux.FlatGraph, *flux.FlatNode, time.Duration) {}
func (c countingObserver) QueueDepth(flux.EngineKind, string, int)                 {}
