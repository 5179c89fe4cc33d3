package main

import (
	"fmt"
	"sort"
)

// interactionNotes say how the layer metrics and the end-to-end metrics
// move each other; they are printed with the tables and stored with the
// result.
var interactionNotes = []string{
	"closed-loop workloads (small_keepalive, steal_small_keepalive, fresh_conn, churn_large): nothing else contends, so a faster layer saves at most its ns/request share of cpu_us_per_req and, with connections <= processors, about the same from lat_p50_us",
	"mixed_openloop: utilisation is low, so throughput cannot move (req_per_s sits at the offered 8000/s) and savings show only as latency",
	"lat_p99_us on mixed_openloop is set by wake-ups and garbage collection: server.gc_cycles, server.gc_pause_ms and server.ctx_switches_per_req are its explanatory counters",
	"reconcile.remainder_us is processor time no replayed layer accounts for: socket reads, epoll and scheduler wake-ups, deadline arming, the observer's clock reads, the kernel's accept path",
}

var loopNames = map[loopKind]string{
	closedKeepAlive: "closed loop, keep-alive",
	closedFresh:     "closed loop, one request per connection",
	openLoop:        "open loop, Poisson, keep-alive, no pipelining",
}

func printWorkload(w *workload, o runOpts, res *workloadResult, rep *replayResult) {
	fmt.Printf("== %s: %s engine, %s, %d connections", w.name, w.engine, loopNames[w.loop], numConns())
	if w.loop == openLoop {
		fmt.Printf(", %.0f req/s offered", w.rate)
	}
	fmt.Printf(", over loopback (no link) ==\n   why: %s\n", w.why)
	fmt.Printf("   end to end: median of %d windows of %v, tracing off; spread = interquartile range/median over the windows\n", o.windows, windowLength)
	for _, d := range endToEnd {
		v := res.EndToEnd[d.Name]
		fmt.Printf("     %-16s %14.4f %-5s", d.Name, v.Value, v.Unit)
		switch d.Name {
		case "setup_s":
			fmt.Printf(" spread %5.1f%%  (median of %d set-ups)", 100*res.WindowSpread[d.Name], len(res.SetupsS))
		case "server_rss_mb":
			fmt.Printf(" (peak, whole run)")
		default:
			fmt.Printf(" spread %5.1f%%", 100*res.WindowSpread[d.Name])
		}
		fmt.Println()
	}
	fmt.Printf("     %-16s %14.6f       (%d failed of %d attempted; %d latency samples)\n",
		"fail_frac", res.FailFrac, res.Failed, res.Attempted, res.Samples)
	for _, why := range res.Invalid {
		fmt.Printf("     INVALID: %s\n", why)
	}

	fmt.Println("   per layer: counts from the server child's reports, timings from the traced replay")
	for _, d := range perLayer {
		v := res.PerLayer[d.Name]
		fmt.Printf("     %-42s %16.3f %s\n", d.Name, v.Value, v.Unit)
	}

	fmt.Printf("   budget: ns per request along this workload's path (first %d ops of the tape)\n", o.replayOps)
	parts := make([]string, 0, len(rep.parts))
	for name := range rep.parts {
		parts = append(parts, name)
	}
	sort.Slice(parts, func(i, j int) bool { return rep.parts[parts[i]] > rep.parts[parts[j]] })
	for _, name := range parts {
		fmt.Printf("     %-42s %16.1f ns\n", name, rep.parts[name])
	}
	fmt.Printf("     layers sum %.3f us of %.3f us server CPU per request (loadgen used %.3f us): %.3f us unattributed (%.0f%% explained)\n\n",
		res.PerLayer["reconcile.layers_sum_us"].Value, res.EndToEnd["cpu_us_per_req"].Value,
		res.PerLayer["loadgen.cpu_us_per_req"].Value,
		res.PerLayer["reconcile.remainder_us"].Value, 100*res.PerLayer["reconcile.explained_frac"].Value)
}

func printNotes(env envStamp) {
	fmt.Println("how the metrics interact:")
	for _, n := range interactionNotes {
		fmt.Println("  -", n)
	}
	fmt.Printf("environment: %d processors (generator GOMAXPROCS %d, server GOMAXPROCS %d), %s, kernel %s, %s, commit %s, seed %d, %d connections, traffic over %s\n",
		env.Nproc, env.GenGOMAXPROCS, env.ServerGOMAXPROCS, env.CPUModel, env.Kernel, env.GoVersion, env.GitCommit, env.Seed, env.Conns, env.Network)
}
