package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lang/parser"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/telemetry"
)

// flowGraph compiles Gen -> Double -> Sink and returns its graph.
func flowGraph(t *testing.T) *core.FlatGraph {
	t.Helper()
	astProg, err := parser.Parse("ops_test.flux", `
Gen () => (int v);
Double (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Double -> Sink;
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := core.Build(astProg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p.Graphs["Gen"]
}

// execNode finds the graph's exec vertex for a node.
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

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServeEndpoints stands up the ops listener on an ephemeral port
// and exercises every route: the Prometheus exposition, the JSON debug
// views, and the pprof index.
func TestServeEndpoints(t *testing.T) {
	tel := telemetry.NewSampled(1)
	g := flowGraph(t)

	tel.FlowDone(g, 0, runtime.FlowCompleted, 3*time.Millisecond)
	tel.FlowDone(g, 0, runtime.FlowErrored, time.Millisecond)
	tel.NodeDone(g, g.Nodes[0], 40*time.Microsecond)
	tel.QueueDepth(runtime.ThreadPool, "admission", 5)
	tel.QueueDepth(runtime.ThreadPool, runtime.QueueSteals, 12)
	tel.QueueDepth(runtime.EventDriven, runtime.CtrlWatermark, 64)
	tel.ConnShed("webserver", "overload")
	tel.RegisterConns("webserver", func() telemetry.ConnStats {
		return telemetry.ConnStats{Accepted: 10, Admitted: 8, Shed: 2, Live: 1}
	})
	tel.RegisterDynPages("webserver", func() telemetry.DynPageStats {
		return telemetry.DynPageStats{Compiled: 40, Interpreted: 2, FragHits: 1, FragMisses: 1}
	})

	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"flux_uptime_seconds",
		`flux_flows_total{graph="` + g.Source.Name + `",outcome="completed"} 1`,
		`outcome="errored"} 1`,
		"flux_flow_latency_seconds_bucket",
		`le="+Inf"`,
		"flux_flow_latency_seconds_count",
		"flux_node_latency_seconds",
		`quantile="0.95"`,
		`flux_queue_depth{engine="threadpool",queue="admission"} 5`,
		`flux_stream_value{engine="threadpool",stream="steals"} 12`,
		`flux_ctrl{engine="event",signal="watermark"} 64`,
		`flux_conn_sheds_total{server="webserver",reason="overload"} 1`,
		`flux_plane_connections_total{plane="webserver",state="accepted"} 10`,
		`flux_plane_live_connections{plane="webserver"} 1`,
		`flux_dynamic_pages_total{server="webserver",path="compiled"} 40`,
		`flux_dynamic_pages_total{server="webserver",path="interpreted"} 2`,
		`flux_dynamic_pages_total{server="webserver",path="frag_hit"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Counter streams (steals, ctrl/*) must not leak into queue depth.
	if strings.Contains(body, `flux_queue_depth{engine="threadpool",queue="steals"}`) {
		t.Error("/metrics exposes steals as a queue depth")
	}
	// The endpoint serves WriteMetrics' bytes unchanged, uptime aside.
	var direct strings.Builder
	if err := tel.WriteMetrics(&direct); err != nil {
		t.Fatal(err)
	}
	uptime := regexp.MustCompile(`(?m)^flux_uptime_seconds .*$`)
	if uptime.ReplaceAllString(body, "") != uptime.ReplaceAllString(direct.String(), "") {
		t.Error("/metrics differs from Telemetry.WriteMetrics")
	}

	// Summary JSON round-trips through the public snapshot type.
	code, body = get(t, base+"/debug/flux/summary")
	if code != http.StatusOK {
		t.Fatalf("/debug/flux/summary status %d", code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("summary decode: %v", err)
	}
	if len(snap.Graphs) != 1 || snap.Graphs[0].Flows.Count != 2 {
		t.Errorf("summary graphs = %+v", snap.Graphs)
	}
	if len(snap.Traces) != 2 {
		t.Errorf("summary traces = %d", len(snap.Traces))
	}

	// Paths is the plane's own path profile. Path 0 ends at the exit,
	// so the errored terminal on it counts in Flows but ranks no path.
	code, body = get(t, base+"/debug/flux/paths")
	if code != http.StatusOK {
		t.Fatalf("/debug/flux/paths status %d", code)
	}
	var rep telemetry.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("paths decode: %v", err)
	}
	if len(rep.Graphs) != 1 || rep.Graphs[0].Flows != 2 ||
		len(rep.Graphs[0].Paths) != 1 || rep.Graphs[0].Paths[0].Count != 1 {
		t.Errorf("paths report = %+v", rep)
	}

	for _, route := range []string{
		"/debug/flux/nodes", "/debug/flux/ctrl", "/debug/flux/sheds",
		"/debug/flux/conns", "/debug/flux/dynpages", "/debug/flux/traces",
		"/debug/pprof/",
	} {
		if code, _ := get(t, base+route); code != http.StatusOK {
			t.Errorf("%s status %d", route, code)
		}
	}

	// ctrl view carries only ctrl/* streams.
	_, body = get(t, base+"/debug/flux/ctrl")
	var ctrl []telemetry.StreamSnapshot
	if err := json.Unmarshal([]byte(body), &ctrl); err != nil {
		t.Fatalf("ctrl decode: %v", err)
	}
	if len(ctrl) != 1 || ctrl[0].Queue != runtime.CtrlWatermark {
		t.Errorf("ctrl = %+v", ctrl)
	}
}

// TestServeWithoutProfiler: /debug/flux/paths needs no option — it
// serves the plane's path slots, empty before any flow and populated
// after, in the endpoint's existing JSON shape (field names included).
func TestServeWithoutProfiler(t *testing.T) {
	tel := telemetry.New()
	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + srv.Addr() + "/debug/flux/paths"
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("paths status %d", code)
	}
	var rep telemetry.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rep.Graphs) != 0 {
		t.Errorf("expected empty report, got %+v", rep)
	}

	g := flowGraph(t)
	tel.FlowDone(g, 0, runtime.FlowCompleted, time.Millisecond)
	tel.FlowDone(g, 0, runtime.FlowDropped, time.Millisecond)
	tel.NodeDone(g, execNode(t, g, "Double"), time.Microsecond)
	_, body = get(t, url)
	for _, field := range []string{
		`"source": "Gen"`, `"flows": 1`, `"distinctPaths": 1`, `"ID": 0`, `"Count": 1`,
		`"Total": 1000000`, `"Label": "Gen -\u003e Double -\u003e Sink"`, `"Name": "Double"`,
		`"droppedFlows": 1`, `"droppedTotalNanos": 1000000`,
	} {
		if !strings.Contains(body, field) {
			t.Errorf("paths JSON missing %s:\n%s", field, body)
		}
	}
}
