package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteMetrics renders the aggregate in Prometheus text exposition
// format (version 0.0.4): per-graph flow histograms and outcome
// counters, per-node latency summaries, queue-depth gauges, ctrl/*
// trajectory gauges, shed counters, and connection-plane counters.
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	s := t.snapshot(false, false)
	var b strings.Builder

	fmt.Fprintf(&b, "# HELP flux_uptime_seconds Time since the telemetry plane was created.\n")
	fmt.Fprintf(&b, "# TYPE flux_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "flux_uptime_seconds %g\n", s.UptimeSeconds)

	// Flow outcome counters.
	fmt.Fprintf(&b, "# HELP flux_flows_total Flow terminals by graph and outcome.\n")
	fmt.Fprintf(&b, "# TYPE flux_flows_total counter\n")
	for _, g := range s.Graphs {
		for _, out := range []string{"completed", "errored", "dropped"} {
			fmt.Fprintf(&b, "flux_flows_total{graph=%q,outcome=%q} %d\n", g.Graph, out, g.Outcomes[out])
		}
	}

	// Per-graph flow latency histograms.
	fmt.Fprintf(&b, "# HELP flux_flow_latency_seconds Flow latency by graph (all outcomes).\n")
	fmt.Fprintf(&b, "# TYPE flux_flow_latency_seconds histogram\n")
	for _, g := range s.Graphs {
		writeHistogram(&b, "flux_flow_latency_seconds", fmt.Sprintf("graph=%q", g.Graph), g.Flows)
	}

	// Per-node latency summaries (quantiles, not full histograms — a
	// graph has dozens of vertices and the scrape should stay readable).
	fmt.Fprintf(&b, "# HELP flux_node_latency_seconds Node execution latency by graph and node.\n")
	fmt.Fprintf(&b, "# TYPE flux_node_latency_seconds summary\n")
	for _, g := range s.Graphs {
		for _, n := range g.Nodes {
			base := fmt.Sprintf("graph=%q,node=%q", g.Graph, n.Node)
			fmt.Fprintf(&b, "flux_node_latency_seconds{%s,quantile=\"0.5\"} %g\n", base, n.Hist.Quantile(0.50).Seconds())
			fmt.Fprintf(&b, "flux_node_latency_seconds{%s,quantile=\"0.95\"} %g\n", base, n.Hist.Quantile(0.95).Seconds())
			fmt.Fprintf(&b, "flux_node_latency_seconds_sum{%s} %g\n", base, time.Duration(n.Hist.Sum).Seconds())
			fmt.Fprintf(&b, "flux_node_latency_seconds_count{%s} %d\n", base, n.Hist.Count)
		}
	}

	// Queue-depth gauges (backlogs) and stream gauges (counters riding
	// the same surface: steals, msg/*), plus ctrl/* trajectory gauges.
	var depths, streams, ctrls []StreamSnapshot
	for _, ss := range s.Streams {
		switch {
		case strings.HasPrefix(ss.Queue, "ctrl/"):
			ctrls = append(ctrls, ss)
		case ss.Counter:
			streams = append(streams, ss)
		default:
			depths = append(depths, ss)
		}
	}
	fmt.Fprintf(&b, "# HELP flux_queue_depth Latest sampled depth of an engine queue.\n")
	fmt.Fprintf(&b, "# TYPE flux_queue_depth gauge\n")
	for _, ss := range depths {
		fmt.Fprintf(&b, "flux_queue_depth{engine=%q,queue=%q} %d\n", ss.Engine, ss.Queue, ss.Last)
	}
	fmt.Fprintf(&b, "# HELP flux_stream_value Latest value of a counter stream riding the queue-depth surface.\n")
	fmt.Fprintf(&b, "# TYPE flux_stream_value gauge\n")
	for _, ss := range streams {
		fmt.Fprintf(&b, "flux_stream_value{engine=%q,stream=%q} %d\n", ss.Engine, ss.Queue, ss.Last)
	}
	fmt.Fprintf(&b, "# HELP flux_ctrl Latest SLO-controller trajectory value by signal.\n")
	fmt.Fprintf(&b, "# TYPE flux_ctrl gauge\n")
	for _, ss := range ctrls {
		fmt.Fprintf(&b, "flux_ctrl{engine=%q,signal=%q} %d\n", ss.Engine, strings.TrimPrefix(ss.Queue, "ctrl/"), ss.Last)
	}

	// Shed counters.
	fmt.Fprintf(&b, "# HELP flux_conn_sheds_total Connections shed by server and reason.\n")
	fmt.Fprintf(&b, "# TYPE flux_conn_sheds_total counter\n")
	for _, sh := range s.Sheds {
		fmt.Fprintf(&b, "flux_conn_sheds_total{server=%q,reason=%q} %d\n", sh.Server, sh.Reason, sh.Count)
	}

	// Connection-plane counters.
	fmt.Fprintf(&b, "# HELP flux_plane_connections_total Connection-plane admission counters by plane and state.\n")
	fmt.Fprintf(&b, "# TYPE flux_plane_connections_total counter\n")
	for _, c := range s.Conns {
		fmt.Fprintf(&b, "flux_plane_connections_total{plane=%q,state=\"accepted\"} %d\n", c.Name, c.Stats.Accepted)
		fmt.Fprintf(&b, "flux_plane_connections_total{plane=%q,state=\"admitted\"} %d\n", c.Name, c.Stats.Admitted)
		fmt.Fprintf(&b, "flux_plane_connections_total{plane=%q,state=\"shed\"} %d\n", c.Name, c.Stats.Shed)
	}
	// Dynamic-page dispatch counters.
	if len(s.DynPages) > 0 {
		fmt.Fprintf(&b, "# HELP flux_dynamic_pages_total Dynamic renders by server and dispatch path.\n")
		fmt.Fprintf(&b, "# TYPE flux_dynamic_pages_total counter\n")
		for _, d := range s.DynPages {
			fmt.Fprintf(&b, "flux_dynamic_pages_total{server=%q,path=\"compiled\"} %d\n", d.Name, d.Stats.Compiled)
			fmt.Fprintf(&b, "flux_dynamic_pages_total{server=%q,path=\"interpreted\"} %d\n", d.Name, d.Stats.Interpreted)
			fmt.Fprintf(&b, "flux_dynamic_pages_total{server=%q,path=\"frag_hit\"} %d\n", d.Name, d.Stats.FragHits)
			fmt.Fprintf(&b, "flux_dynamic_pages_total{server=%q,path=\"frag_miss\"} %d\n", d.Name, d.Stats.FragMisses)
		}
	}

	fmt.Fprintf(&b, "# HELP flux_plane_live_connections Live connections tracked per plane.\n")
	fmt.Fprintf(&b, "# TYPE flux_plane_live_connections gauge\n")
	for _, c := range s.Conns {
		fmt.Fprintf(&b, "flux_plane_live_connections{plane=%q} %d\n", c.Name, c.Stats.Live)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one HistSnapshot as a Prometheus histogram:
// cumulative buckets over the non-empty bounds (ascending le values are
// all the format requires), then +Inf, _sum, and _count.
func writeHistogram(b *strings.Builder, name, labels string, h HistSnapshot) {
	sort.Slice(h.Buckets, func(i, j int) bool { return h.Buckets[i].Idx < h.Buckets[j].Idx })
	var cum uint64
	for _, bk := range h.Buckets {
		cum += bk.N
		le := time.Duration(bk.UpperNanos()).Seconds()
		fmt.Fprintf(b, "%s_bucket{%s,le=\"%g\"} %d\n", name, labels, le, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, h.Count)
	fmt.Fprintf(b, "%s_sum{%s} %g\n", name, labels, time.Duration(h.Sum).Seconds())
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, h.Count)
}
