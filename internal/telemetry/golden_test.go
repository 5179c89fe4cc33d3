package telemetry

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/runtime"
)

// goldenSrc has an error handler, a dispatch with a catch-all, and a
// second source, so its graphs have paths ending at both terminals.
const goldenSrc = `
Gen () => (int v);
Tick () => (int v);
Check (int v) => (int v);
Evens (int v) => (int v);
Odds (int v) => (int v);
Sink (int v) => ();
Fail (int v) => ();
source Gen => Flow;
source Tick => Beat;
Flow = Check -> Route -> Sink;
Beat = Check -> Sink;
typedef even IsEven;
Route:[even] = Evens;
Route:[_] = Odds;
handle error Evens => Fail;
`

// terminalOutcome is the outcome the runtime reports for a complete
// path: the kind of the terminal it ends at.
func terminalOutcome(g *core.FlatGraph, id uint64) runtime.FlowOutcome {
	nodes := g.DecodePath(id)
	if nodes[len(nodes)-1].Kind == core.FlatError {
		return runtime.FlowErrored
	}
	return runtime.FlowCompleted
}

// feedGolden drives a fixed event sequence through every record entry
// point: consistent terminals on every path of two instances of one
// program, terminals whose outcome disagrees with their path, drops,
// IDs past the path count, an unknown outcome, node completions, every
// kind of queue-depth stream, sheds, and registered conn/dyn sources.
func feedGolden(t *testing.T, tel *Telemetry) {
	t.Helper()
	p1, p2 := compileSrc(t, goldenSrc), compileSrc(t, goldenSrc)
	for inst, p := range []*core.Program{p1, p2} {
		for _, name := range []string{"Gen", "Tick"} {
			g := p.Graphs[name]
			for id := uint64(0); id < g.NumPaths; id++ {
				for k := uint64(0); k <= id+uint64(inst); k++ {
					d := time.Duration(1+id*37+k*11) * time.Microsecond
					tel.FlowDone(g, id, terminalOutcome(g, id), d)
				}
			}
			for _, v := range g.Nodes {
				if v.Kind != core.FlatExec {
					continue
				}
				for k := 0; k <= v.ID%3+inst; k++ {
					tel.NodeDone(g, v, time.Duration(3+v.ID*k*7)*time.Microsecond)
				}
			}
		}
	}
	g := p1.Graphs["Gen"]
	tel.FlowDone(g, 0, runtime.FlowErrored, time.Millisecond)
	tel.FlowDone(g, g.NumPaths-1, runtime.FlowCompleted, 2*time.Millisecond)
	tel.FlowDone(g, 0, runtime.FlowDropped, 3*time.Millisecond)
	tel.FlowDone(g, 1, runtime.FlowDropped, 4*time.Millisecond)
	tel.FlowDone(g, g.NumPaths+5, runtime.FlowCompleted, 5*time.Millisecond)
	tel.FlowDone(g, 1<<40, runtime.FlowErrored, 6*time.Millisecond)
	tel.FlowDone(g, 2, runtime.FlowOutcome(7), 7*time.Millisecond)
	tel.FlowDone(p2.Graphs["Tick"], 1<<20, runtime.FlowDropped, 0)

	for i, depth := range []int{5, 9, 2} {
		tel.QueueDepth(runtime.ThreadPool, "admission", depth+i)
	}
	tel.QueueDepth(runtime.EventDriven, "events", 4)
	tel.QueueDepth(runtime.EventDriven, "async", 0)
	tel.QueueDepth(runtime.WorkStealing, "disp0", 3)
	tel.QueueDepth(runtime.WorkStealing, runtime.QueueSteals, 12)
	tel.QueueDepth(runtime.EventDriven, runtime.CtrlWatermark, 64)
	tel.QueueDepth(runtime.EventDriven, runtime.CtrlWindowP95, 1500)
	tel.QueueDepth(runtime.ThreadPool, runtime.MsgStreamPrefix+"piece", 40)
	tel.QueueDepth(runtime.ThreadPool, runtime.MsgStreamPrefix+"piece-p95us", 812)

	for _, sh := range [][2]string{
		{"webserver", "overload"}, {"webserver", "overload"}, {"webserver", "timeout"},
		{"bittorrent", "idle"}, {"webserver", "conn-limit"},
	} {
		tel.ConnShed(sh[0], sh[1])
	}
	tel.RegisterConns("webserver", func() ConnStats {
		return ConnStats{Accepted: 10, Admitted: 8, Shed: 2, Live: 1}
	})
	tel.RegisterConns("webserver", func() ConnStats {
		return ConnStats{Accepted: 3, Admitted: 3, Live: 2}
	})
	tel.RegisterConns("bittorrent", func() ConnStats { return ConnStats{Accepted: 1, Admitted: 1} })
	tel.RegisterDynPages("webserver", func() DynPageStats {
		return DynPageStats{Compiled: 40, Interpreted: 2, FragHits: 1, FragMisses: 1}
	})
}

var uptimeLine = regexp.MustCompile(`(?m)^flux_uptime_seconds .*$`)

// TestMetricsGolden: the /metrics exposition over a fixed event sequence
// is byte-identical to the exposition captured at the commit before the
// path slots replaced the outcome counters (uptime masked). The golden file
// is that capture; regenerating it from this code would defeat the
// test.
func TestMetricsGolden(t *testing.T) {
	tel := NewSampled(3)
	feedGolden(t, tel)
	var body strings.Builder
	if err := tel.WriteMetrics(&body); err != nil {
		t.Fatal(err)
	}
	got := uptimeLine.ReplaceAllString(body.String(), "flux_uptime_seconds 0")
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics differs from testdata/metrics.golden:\n%s", got)
	}
}
