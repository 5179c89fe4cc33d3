package main

import "github.com/flux-lang/flux/internal/runtime"

// metricDef names one metric of the benchmark. The tables below are the
// single source of truth: BENCHMARK.json repeats them (the package test
// asserts the two agree) and every later issue refers to a metric by
// the name given here.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, share of the parent's median
}

// metricValue is one measured metric as it appears in every JSON output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the user-visible metrics, the same seven on every
// workload. A bound is at least twice the widest run-to-run spread
// (interquartile range over the median of ten runs with ten seeds) seen on
// any workload on the reference box, and never above a quarter; see the
// noise table in README.md for why they are this wide.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.20},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_req", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// engineNames are the registered runtime engines in the order the
// per-engine probes run; the names suffix the runtime.* layer metrics.
var engineNames = []string{"threadpool", "steal", "event", "thread"}

func engineKind(name string) runtime.EngineKind {
	k, ok := runtime.ParseEngineKind(name)
	if !ok {
		panic("bench: engine " + name + " is not registered")
	}
	return k
}

// perLayer lists the single-layer metrics: counts read from the server
// child's reports and timings taken by the traced layer replay. A layer
// is a module of this repository, and the prefix names it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "netkit.accept_admit_ns", Unit: "ns", Better: "lower"},
		{Name: "netkit.conn_close_ns", Unit: "ns", Better: "lower"},
		{Name: "netkit.writevec_ns", Unit: "ns", Better: "lower"},
		{Name: "netkit.write_ns", Unit: "ns", Better: "lower"},
		{Name: "netkit.write_bytes_per_req", Unit: "B", Better: "lower"},
		{Name: "netkit.sendfile_ns", Unit: "ns", Better: "lower"},
		{Name: "netkit.sendfile_frac", Unit: "ratio", Better: "higher"},
		{Name: "netkit.accepted", Unit: "count", Better: "lower"},
		{Name: "netkit.admitted", Unit: "count", Better: "lower"},
		{Name: "netkit.shed", Unit: "count", Better: "lower"},
		{Name: "netkit.live_peak", Unit: "count", Better: "lower"},
	}
	for _, probe := range []string{"flow_ns", "flow_ns_batched", "hop_gap_ns", "inject_to_first_node_ns"} {
		for _, e := range engineNames {
			defs = append(defs, metricDef{Name: "runtime." + probe + "." + e, Unit: "ns", Better: "lower"})
		}
	}
	return append(defs,
		metricDef{Name: "runtime.lock_pair_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "runtime.lock_pair_contended_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "runtime.lock_hops_per_req", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.flows_completed", Unit: "count", Better: "higher"},
		metricDef{Name: "runtime.flows_errored", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.flows_dropped", Unit: "count", Better: "lower"},
		metricDef{Name: "webserver.parse_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "httpkit.static_header_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "httpkit.render_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "lfu.get_hit_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "lfu.put_evict_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "lfu.hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "lfu.evictions_per_req", Unit: "1/req", Better: "lower"},
		metricDef{Name: "loadgen.lookup_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "fscript.render_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "fscript.compiled_frac", Unit: "ratio", Better: "higher"},
		metricDef{Name: "telemetry.flow_done_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "telemetry.node_done_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "server.allocs_per_req", Unit: "1/req", Better: "lower"},
		metricDef{Name: "server.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "server.gc_pause_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.read_syscalls_per_req", Unit: "1/req", Better: "lower"},
		metricDef{Name: "server.write_syscalls_per_req", Unit: "1/req", Better: "lower"},
		metricDef{Name: "server.ctx_switches_per_req", Unit: "1/req", Better: "lower"},
		metricDef{Name: "loadgen.cpu_us_per_req", Unit: "us", Better: "lower"},
		metricDef{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
		metricDef{Name: "reconcile.layers_sum_us", Unit: "us", Better: "lower"},
		metricDef{Name: "reconcile.remainder_us", Unit: "us", Better: "lower"},
		metricDef{Name: "reconcile.explained_frac", Unit: "ratio", Better: "higher"},
		metricDef{Name: "trace.span_overhead_ns", Unit: "ns", Better: "lower"},
	)
}
