package telemetry

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/runtime"
)

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

func compileGraph(t *testing.T, src, source string) *core.FlatGraph {
	t.Helper()
	return compileSrc(t, src).Graphs[source]
}

// pathIDFor finds the Ball-Larus ID whose label matches.
func pathIDFor(t *testing.T, g *core.FlatGraph, label string) uint64 {
	t.Helper()
	for id := uint64(0); id < g.NumPaths; id++ {
		if g.PathLabel(id) == label {
			return id
		}
	}
	t.Fatalf("no path labeled %q", label)
	return 0
}

func execNode(t *testing.T, g *core.FlatGraph, name string) *core.FlatNode {
	t.Helper()
	for _, v := range g.Nodes {
		if v.Kind == core.FlatExec && v.Node.Name == name {
			return v
		}
	}
	t.Fatalf("no exec vertex %q", name)
	return nil
}

func TestHotPathsByCount(t *testing.T) {
	g := compileGraph(t, dispatchSrc, "Gen")
	tel := New()
	even := pathIDFor(t, g, "Gen -> Evens -> Sink")
	odd := pathIDFor(t, g, "Gen -> Odds -> Sink")
	for i := 0; i < 10; i++ {
		tel.FlowDone(g, even, runtime.FlowCompleted, time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		tel.FlowDone(g, odd, runtime.FlowCompleted, 10*time.Millisecond)
	}
	rows := tel.PathProfile(g, ByCount, 0).Paths
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Label != "Gen -> Evens -> Sink" || rows[0].Count != 10 {
		t.Errorf("top by count = %+v", rows[0])
	}

	rows = tel.PathProfile(g, ByTotalTime, 0).Paths
	if rows[0].Label != "Gen -> Odds -> Sink" {
		t.Errorf("top by total time = %+v", rows[0])
	}
	if rows[0].Total != 30*time.Millisecond {
		t.Errorf("total = %v", rows[0].Total)
	}

	rows = tel.PathProfile(g, ByMeanTime, 1).Paths
	if len(rows) != 1 || rows[0].Mean() != 10*time.Millisecond {
		t.Errorf("by mean = %+v", rows)
	}
}

func TestNodeStats(t *testing.T) {
	g := compileGraph(t, dispatchSrc, "Gen")
	tel := New()
	sink, evens := execNode(t, g, "Sink"), execNode(t, g, "Evens")
	tel.NodeDone(g, sink, 2*time.Millisecond)
	tel.NodeDone(g, sink, 4*time.Millisecond)
	tel.NodeDone(g, evens, 20*time.Millisecond)

	nodes := tel.PathProfile(g, ByCount, 0).Nodes
	if len(nodes) != 2 {
		t.Fatalf("nodes = %+v", nodes)
	}
	if nodes[0].Name != "Evens" {
		t.Errorf("bottleneck order wrong: %+v", nodes)
	}
	if nodes[1].Count != 2 || nodes[1].Mean() != 3*time.Millisecond {
		t.Errorf("sink stats = %+v", nodes[1])
	}
}

func TestEdgeFrequencies(t *testing.T) {
	g := compileGraph(t, dispatchSrc, "Gen")
	tel := New()
	even := pathIDFor(t, g, "Gen -> Evens -> Sink")
	odd := pathIDFor(t, g, "Gen -> Odds -> Sink")
	for i := 0; i < 7; i++ {
		tel.FlowDone(g, even, runtime.FlowCompleted, time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		tel.FlowDone(g, odd, runtime.FlowCompleted, time.Millisecond)
	}
	freq := tel.EdgeFrequencies(g)

	var br *core.FlatNode
	for _, v := range g.Nodes {
		if v.Kind == core.FlatBranch {
			br = v
		}
	}
	if br == nil {
		t.Fatal("no branch")
	}
	if freq[br.Out[0]] != 7 || freq[br.Out[1]] != 3 {
		t.Errorf("branch frequencies = %d/%d, want 7/3", freq[br.Out[0]], freq[br.Out[1]])
	}
}

func TestReportRendering(t *testing.T) {
	g := compileGraph(t, dispatchSrc, "Gen")
	tel := New()
	tel.FlowDone(g, pathIDFor(t, g, "Gen -> Evens -> Sink"), runtime.FlowCompleted, 250*time.Microsecond)
	tel.NodeDone(g, execNode(t, g, "Sink"), time.Millisecond)
	rep := tel.PathProfile(g, ByCount, 10)
	text := rep.Render()
	for _, want := range []string{"source Gen", "1 flows", "Gen -> Evens -> Sink"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestEmptyPathReports(t *testing.T) {
	g := compileGraph(t, dispatchSrc, "Gen")
	rep := New().PathProfile(g, ByCount, 5)
	if len(rep.Paths) != 0 || len(rep.Nodes) != 0 {
		t.Errorf("rows on an unobserved graph: %+v", rep)
	}
	if !strings.Contains(rep.Render(), "0 flows") {
		t.Error("empty report should render")
	}
}

// TestFlowDroppedBucketsSeparately: a dropped flow's register is the
// partial route to its unmatched dispatch and can equal a complete
// path's ID; it must land in the drop slot, not inflate that path.
// A terminal past the path slots counts in Flows but ranks no path.
func TestFlowDroppedBucketsSeparately(t *testing.T) {
	g := compileGraph(t, dispatchSrc, "Gen")
	tel := New()
	id := pathIDFor(t, g, "Gen -> Evens -> Sink")
	tel.FlowDone(g, id, runtime.FlowCompleted, 2*time.Millisecond)
	tel.FlowDone(g, id, runtime.FlowCompleted, 2*time.Millisecond)
	for i := 0; i < 3; i++ {
		tel.FlowDone(g, id, runtime.FlowDropped, time.Millisecond)
	}
	tel.FlowDone(g, maxPathSlots+1, runtime.FlowCompleted, time.Millisecond)

	rep := tel.PathProfile(g, ByCount, 0)
	if len(rep.Paths) != 1 || rep.Paths[0].Count != 2 {
		t.Fatalf("hot paths = %+v, want one path with count 2 (drops excluded)", rep.Paths)
	}
	if rep.Flows != 3 || rep.DistinctPaths != 1 {
		t.Errorf("Flows = %d, DistinctPaths = %d, want 3 (overflow included), 1", rep.Flows, rep.DistinctPaths)
	}
	if rep.DroppedFlows != 3 || rep.DroppedTotal != 3*time.Millisecond {
		t.Errorf("drops = %d, %v, want 3, 3ms", rep.DroppedFlows, rep.DroppedTotal)
	}
	if text := rep.Render(); !strings.Contains(text, "3 flows dropped at dispatch") {
		t.Errorf("report missing drop line:\n%s", text)
	}
	out := tel.Snapshot().Graphs[0].Outcomes
	if out["completed"] != 3 || out["dropped"] != 3 {
		t.Errorf("outcomes = %v, want 3 completed, 3 dropped", out)
	}
}

// TestPathProfilesStructured: PathProfiles carries one report per
// compiled graph, sorted by source name and never merged by it.
func TestPathProfilesStructured(t *testing.T) {
	tel := New()
	g1 := compileGraph(t, dispatchSrc, "Gen")
	g2 := compileGraph(t, dispatchSrc, "Gen")
	other := compileGraph(t, pipelineSrc, "Gen")
	even := pathIDFor(t, g1, "Gen -> Evens -> Sink")
	for i := 0; i < 4; i++ {
		tel.FlowDone(g1, even, runtime.FlowCompleted, 2*time.Millisecond)
	}
	tel.FlowDone(g2, even, runtime.FlowCompleted, time.Millisecond)
	tel.NodeDone(other, execNode(t, other, "Double"), time.Millisecond)

	rep := tel.PathProfiles(ByCount, 0)
	if len(rep.Graphs) != 3 {
		t.Fatalf("graphs = %d, want 3 (one per compiled graph)", len(rep.Graphs))
	}
	var flows []uint64
	for _, gr := range rep.Graphs {
		if gr.Source != "Gen" {
			t.Errorf("source = %q", gr.Source)
		}
		flows = append(flows, gr.Flows)
	}
	if sum := flows[0] + flows[1] + flows[2]; sum != 5 {
		t.Errorf("flows per graph = %v, want 4+1+0", flows)
	}
}

// accountingSrc has an erroring node and a dispatch without a catch-all
// case, so its flows end at all three outcomes.
const accountingSrc = `
Gen () => (int v);
Check (int v) => (int v);
Big (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Check -> Route -> Sink;
typedef big IsBig;
Route:[big] = Big;
`

// TestPathAccountingAllEngines runs flows ending at the exit, at the
// error terminal, and at an unmatched dispatch on every engine, and
// reads the path profile the ops endpoint serves, with no option set:
// per-terminal path sums and the drop slot must equal the server's own
// Stats, and every ranked path must decode.
func TestPathAccountingAllEngines(t *testing.T) {
	kinds := []runtime.EngineKind{
		runtime.ThreadPerFlow, runtime.ThreadPool, runtime.EventDriven, runtime.WorkStealing,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, accountingSrc)
			g := p.Graphs["Gen"]
			tel := New()
			var n atomic.Int64
			b := runtime.NewBindings().
				BindSource("Gen", func(fl *runtime.Flow) (runtime.Record, error) {
					if v := n.Add(1); v <= 300 {
						return runtime.Record{int(v)}, nil
					}
					return nil, runtime.ErrStop
				}).
				BindNode("Check", func(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
					if in[0].(int)%7 == 0 {
						return nil, errors.New("check failed")
					}
					return in, nil
				}).
				BindNode("Big", func(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) { return in, nil }).
				BindNode("Sink", func(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) { return nil, nil }).
				BindPredicate("IsBig", func(v any) bool { return v.(int)%3 != 0 })
			srv, err := runtime.New(p, b, runtime.WithEngine(kind), runtime.WithObserver(tel))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Run(ctx); err != nil {
				t.Fatal(err)
			}

			rep := tel.PathProfiles(ByCount, 0)
			if len(rep.Graphs) != 1 {
				t.Fatalf("graphs = %d, want 1", len(rep.Graphs))
			}
			gr := rep.Graphs[0]
			var exit, errored uint64
			for _, row := range gr.Paths {
				nodes := g.DecodePath(row.ID)
				if nodes == nil || row.Label == "" || row.Label != g.PathLabel(row.ID) {
					t.Errorf("path %d label %q does not decode", row.ID, row.Label)
					continue
				}
				switch nodes[len(nodes)-1].Kind {
				case core.FlatExit:
					exit += row.Count
				case core.FlatError:
					errored += row.Count
				}
			}
			st := srv.Stats().Snapshot()
			if st.Completed == 0 || st.Errored == 0 || st.Dropped == 0 {
				t.Fatalf("stats = %+v, want all three outcomes", st)
			}
			if exit != st.Completed || errored != st.Errored || gr.DroppedFlows != st.Dropped {
				t.Errorf("paths exit/error/drop = %d/%d/%d, stats completed/errored/dropped = %d/%d/%d",
					exit, errored, gr.DroppedFlows, st.Completed, st.Errored, st.Dropped)
			}
			if gr.Flows != st.Completed+st.Errored {
				t.Errorf("flows = %d, want %d", gr.Flows, st.Completed+st.Errored)
			}
		})
	}
}
