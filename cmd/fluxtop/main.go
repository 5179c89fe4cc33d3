// Command fluxtop is a terminal view of a running Flux server's live
// telemetry: it polls the ops endpoint's /debug/flux/summary JSON
// (started with fluxbench -obs) and
// redraws a top-style screen each interval — per-graph flow rates and
// latency quantiles, the hottest nodes, queue-depth and ctrl/*
// trajectories as sparklines, shed counters, and connection-plane
// admission state.
//
// Usage:
//
//	fluxtop -addr 127.0.0.1:9190 [-interval 1s] [-n 0]
//
// -n bounds the number of refreshes (0 polls until interrupted).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/flux-lang/flux/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9190", "ops endpoint address (host:port)")
	interval := flag.Duration("interval", time.Second, "refresh period")
	n := flag.Int("n", 0, "number of refreshes; 0 polls until interrupted")
	flag.Parse()

	url := "http://" + *addr + "/debug/flux/summary"
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; *n == 0 || i < *n; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		snap, err := fetch(client, url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fluxtop: %v\n", err)
			os.Exit(1)
		}
		// Clear and home, then one full frame: flicker-free enough at
		// top's cadence without pulling in a terminal library.
		fmt.Print("\x1b[2J\x1b[H")
		fmt.Print(render(snap, *addr))
	}
}

func fetch(client *http.Client, url string) (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	resp, err := client.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s: %s", url, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// sparkRunes grade a sparkline from empty to full block.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// spark renders the series' most recent points as a fixed-width
// sparkline scaled to the window's own min/max.
func spark(samples []telemetry.Sample, width int) string {
	if len(samples) > width {
		samples = samples[len(samples)-width:]
	}
	if len(samples) == 0 {
		return strings.Repeat(" ", width)
	}
	lo, hi := samples[0].V, samples[0].V
	for _, s := range samples {
		if s.V < lo {
			lo = s.V
		}
		if s.V > hi {
			hi = s.V
		}
	}
	var b strings.Builder
	for _, s := range samples {
		idx := 0
		if hi > lo {
			idx = int(int64(len(sparkRunes)-1) * (s.V - lo) / (hi - lo))
		}
		b.WriteRune(sparkRunes[idx])
	}
	b.WriteString(strings.Repeat(" ", width-len(samples)))
	return b.String()
}

func fmtDur(nanos int64) string {
	return time.Duration(nanos).Round(10 * time.Microsecond).String()
}

// render draws one frame from a summary snapshot. It is pure — the
// screen handling stays in main — so tests can assert on frames.
func render(s telemetry.Snapshot, addr string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fluxtop — %s — up %s — %s\n\n",
		addr, time.Duration(s.UptimeSeconds*float64(time.Second)).Round(time.Second),
		time.Unix(0, s.At).Format("15:04:05"))

	fmt.Fprintf(&b, "%-14s %5s %10s %10s %10s %10s %10s %8s\n",
		"GRAPH", "inst", "flows", "p50", "p95", "p99", "max", "err+drop")
	for _, g := range s.Graphs {
		var flows uint64
		for _, v := range g.Outcomes {
			flows += v
		}
		fmt.Fprintf(&b, "%-14s %5d %10d %10s %10s %10s %10s %8d\n",
			g.Graph, g.Instances, flows,
			fmtDur(int64(g.Flows.Quantile(0.50))), fmtDur(int64(g.Flows.Quantile(0.95))),
			fmtDur(int64(g.Flows.Quantile(0.99))), fmtDur(g.Flows.Max),
			g.Outcomes["errored"]+g.Outcomes["dropped"])
	}

	// Hottest nodes across all graphs, by cumulative time.
	type hotNode struct {
		graph string
		n     telemetry.NodeSnapshot
	}
	var nodes []hotNode
	for _, g := range s.Graphs {
		for _, n := range g.Nodes {
			nodes = append(nodes, hotNode{g.Graph, n})
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].n.Hist.Sum > nodes[j].n.Hist.Sum })
	if len(nodes) > 8 {
		nodes = nodes[:8]
	}
	if len(nodes) > 0 {
		fmt.Fprintf(&b, "\n%-30s %10s %10s %10s %12s\n", "HOT NODE", "execs", "p50", "p95", "total")
		for _, hn := range nodes {
			fmt.Fprintf(&b, "%-30s %10d %10s %10s %12s\n",
				hn.graph+"."+hn.n.Node, hn.n.Hist.Count,
				fmtDur(int64(hn.n.Hist.Quantile(0.50))), fmtDur(int64(hn.n.Hist.Quantile(0.95))),
				time.Duration(hn.n.Hist.Sum).Round(time.Millisecond).String())
		}
	}

	if len(s.Streams) > 0 {
		fmt.Fprintf(&b, "\n%-34s %10s  %s\n", "STREAM", "last", "window")
		for _, ss := range s.Streams {
			fmt.Fprintf(&b, "%-34s %10d  %s\n", ss.Name(), ss.Last, spark(ss.Samples, 32))
		}
	}

	if len(s.Sheds) > 0 {
		fmt.Fprintf(&b, "\n%-34s %10s  %s\n", "SHEDS (server/reason)", "total", "window")
		for _, sh := range s.Sheds {
			fmt.Fprintf(&b, "%-34s %10d  %s\n", sh.Server+"/"+sh.Reason, sh.Count, spark(sh.Samples, 32))
		}
	}

	if len(s.Conns) > 0 {
		fmt.Fprintf(&b, "\n%-14s %10s %10s %10s %8s\n", "PLANE", "accepted", "admitted", "shed", "live")
		for _, c := range s.Conns {
			fmt.Fprintf(&b, "%-14s %10d %10d %10d %8d\n",
				c.Name, c.Stats.Accepted, c.Stats.Admitted, c.Stats.Shed, c.Stats.Live)
		}
	}

	if len(s.Traces) > 0 {
		fmt.Fprintf(&b, "\nSAMPLED FLOWS (most recent last)\n")
		for _, tr := range s.Traces {
			path := tr.Path
			if path == "" {
				path = fmt.Sprintf("path#%d", tr.PathID)
			}
			fmt.Fprintf(&b, "  %s  %-10s %8s  %s\n",
				time.Unix(0, tr.At).Format("15:04:05.000"), tr.Outcome,
				fmtDur(int64(tr.Elapsed)), path)
		}
	}
	return b.String()
}
