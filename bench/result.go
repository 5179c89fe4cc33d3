package main

import (
	"fmt"
	"os"
	"slices"

	"github.com/flux-lang/flux/internal/servers/httpkit"
)

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Name             string                 `json:"name"`
	ServerGOMAXPROCS int                    `json:"server_gomaxprocs"`
	Attempted        uint64                 `json:"attempted"`
	Failed           uint64                 `json:"failed"`
	FailFrac         float64                `json:"fail_frac"`
	FailKinds        map[string]uint64      `json:"fail_kinds,omitempty"`
	Samples          uint64                 `json:"latency_samples"`
	EndToEnd         map[string]metricValue `json:"end_to_end"`
	// WindowSpread is, per end-to-end metric, the distance between the
	// first and third quartile of the windows as a share of their median.
	WindowSpread map[string]float64 `json:"window_spread"`
	SetupsS      []float64          `json:"setups_s"`
	// SetupsRepeated counts the set-ups thrown away because their warm-up
	// lost a request.
	SetupsRepeated int                    `json:"setups_repeated"`
	PerLayer       map[string]metricValue `json:"per_layer"`
	// Invalid lists the validity guards the run tripped; any entry makes
	// the command exit non-zero.
	Invalid []string `json:"invalid,omitempty"`
}

func perReq(n uint64, reqs uint64) float64 {
	if reqs == 0 {
		return 0
	}
	return float64(n) / float64(reqs)
}

// runWorkload sets the workload up o.setups times, measures the last
// set-up, and turns the raw counts into the named metrics.
func runWorkload(w *workload, o runOpts) (*workloadResult, error) {
	var ses *session
	var setups []float64
	repeated := 0
	for len(setups) < o.setups {
		if ses != nil {
			if _, err := ses.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if ses, err = setUp(w, o); err != nil {
			return nil, err
		}
		// A set-up whose warm-up lost a request is not measured: it is
		// reported and done again. (Seen once in some 1500 set-ups: a
		// warm-up response that took more than the 2 s I/O timeout.)
		if fails, first := ses.warmFails(); fails > 0 {
			repeated++
			fmt.Fprintf(os.Stderr, "bench: %s: set-up repeated, %d warm-up requests failed; first: %s\n", w.name, fails, first)
			if repeated > maxSetupRepeats {
				ses.abort()
				return nil, fmt.Errorf("%d set-ups in a row lost warm-up requests", repeated)
			}
			continue
		}
		setups = append(setups, ses.setupS)
	}
	m, err := ses.measure()
	if err != nil {
		return nil, err
	}
	res := summarize(w, ses.conns, m, setups)
	res.ServerGOMAXPROCS = ses.child.hello.GOMAXPROCS
	res.SetupsRepeated = repeated
	return res, nil
}

func summarize(w *workload, conns []*genConn, m *measurement, setups []float64) *workloadResult {
	res := &workloadResult{
		Name:         w.name,
		FailKinds:    map[string]uint64{},
		EndToEnd:     map[string]metricValue{},
		WindowSpread: map[string]float64{},
		SetupsS:      setups,
		PerLayer:     map[string]metricValue{},
	}
	winS := float64(m.plan.winLen) / 1e9
	perWindow := map[string][]float64{}
	var okTotal uint64
	var late []uint32
	for k := 0; k < m.plan.windows; k++ {
		var ok, bytes uint64
		for _, g := range conns {
			ws := &g.win[k]
			res.Attempted += ws.attempted
			ok += ws.ok
			bytes += ws.bytes
			for kind, n := range ws.fails {
				res.Failed += n
				if n > 0 {
					res.FailKinds[failKindNames[kind]] += n
				}
			}
		}
		okTotal += ok
		lat := merged(conns, k, func(ws *winStats) []uint32 { return ws.lat })
		res.Samples += uint64(len(lat))
		late = append(late, merged(conns, k, func(ws *winStats) []uint32 { return ws.late })...)
		cpu := m.reports[k+1].CPUUs - m.reports[k].CPUUs
		perWindow["req_per_s"] = append(perWindow["req_per_s"], float64(ok)/winS)
		perWindow["mb_per_s"] = append(perWindow["mb_per_s"], float64(bytes)/1e6/winS)
		perWindow["lat_p50_us"] = append(perWindow["lat_p50_us"], quantile(lat, 0.50))
		perWindow["lat_p99_us"] = append(perWindow["lat_p99_us"], quantile(lat, 0.99))
		perWindow["cpu_us_per_req"] = append(perWindow["cpu_us_per_req"], perReq(uint64(cpu), ok))
	}
	res.FailFrac = perReq(res.Failed, res.Attempted)

	for _, d := range endToEnd {
		var v float64
		switch d.Name {
		case "setup_s":
			v = median(setups)
			res.WindowSpread[d.Name] = spread(setups)
		case "server_rss_mb":
			v = float64(m.after.PeakRSSKB) / 1024
		default:
			v = median(perWindow[d.Name])
			res.WindowSpread[d.Name] = spread(perWindow[d.Name])
		}
		res.EndToEnd[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}

	// Counts of single layers, read from the child's reports over the
	// measured period (first window's start to the last response).
	b, a, f := m.before, m.after, m.final
	served := a.Completed - b.Completed
	set := func(name string, v float64) { res.PerLayer[name] = metricValue{Value: v, Unit: unitOf(name)} }
	set("netkit.accepted", float64(f.Accepted))
	set("netkit.admitted", float64(f.Admitted))
	set("netkit.shed", float64(f.Shed))
	set("netkit.live_peak", float64(m.livePeak))
	set("runtime.flows_completed", float64(f.Completed))
	set("runtime.flows_errored", float64(f.Errored))
	set("runtime.flows_dropped", float64(f.Dropped))
	hits, misses := a.Hits-b.Hits, a.Misses-b.Misses
	hitRatio := perReq(hits, hits+misses)
	evictions := perReq(a.Evictions-b.Evictions, served)
	set("lfu.hit_ratio", hitRatio)
	set("lfu.evictions_per_req", evictions)
	dynCompiled := a.DynCompiled - b.DynCompiled
	dynAll := dynCompiled + (a.DynInterpreted - b.DynInterpreted) + (a.DynFragments - b.DynFragments)
	compiledFrac := 1.0 // no dynamic request, so none left the compiled path
	if dynAll > 0 {
		compiledFrac = perReq(dynCompiled, dynAll)
	}
	set("fscript.compiled_frac", compiledFrac)
	set("server.allocs_per_req", perReq(a.Mallocs-b.Mallocs, served))
	set("server.gc_cycles", float64(a.NumGC-b.NumGC))
	set("server.gc_pause_ms", float64(a.PauseTotalNs-b.PauseTotalNs)/1e6)
	set("server.read_syscalls_per_req", perReq(a.Syscr-b.Syscr, served))
	set("server.write_syscalls_per_req", perReq(a.Syscw-b.Syscw, served))
	set("server.ctx_switches_per_req", perReq(uint64(a.Nvcsw-b.Nvcsw), served))
	set("loadgen.cpu_us_per_req", perReq(uint64(m.genCPUUs), okTotal))
	slices.Sort(late)
	lateP99 := quantile(late, 0.99)
	set("loadgen.late_p99_us", lateP99)

	var sendfileOps, ops int
	var writeBytes uint64
	for _, g := range conns {
		for i := range g.tape {
			o := &g.tape[i]
			ops++
			if o.sendfile {
				sendfileOps++
			}
			writeBytes += uint64(responseBytes(o))
		}
	}
	sendfileFrac := float64(sendfileOps) / float64(ops)
	set("netkit.sendfile_frac", sendfileFrac)
	set("netkit.write_bytes_per_req", float64(writeBytes)/float64(ops))

	// Validity guards: a run outside them did not measure what the
	// workload names, so it fails instead of reporting a slow number.
	invalid := func(format string, args ...any) { res.Invalid = append(res.Invalid, fmt.Sprintf(format, args...)) }
	if res.Failed > 0 {
		first := ""
		for _, g := range conns {
			if first == "" {
				first = g.firstFail
			}
		}
		invalid("fail_frac %.6f (%d of %d) %v; first: %s", res.FailFrac, res.Failed, res.Attempted, res.FailKinds, first)
	}
	if m.childStopErr != nil {
		invalid("%v", m.childStopErr)
	}
	if m.portsRanOut {
		invalid("a dial failed with EADDRNOTAVAIL: ephemeral ports ran out")
	}
	if f.Shed > 0 {
		invalid("netkit.shed = %d, want 0", f.Shed)
	}
	if compiledFrac < 1 {
		invalid("fscript.compiled_frac = %.4f, want 1", compiledFrac)
	}
	if w.loop == openLoop && lateP99 > lateP99LimitUs {
		invalid("loadgen.late_p99_us = %.0f exceeds %.0f: the generator fell behind its schedule", lateP99, lateP99LimitUs)
	}
	if !a.IOReadable {
		invalid("/proc/self/io is not readable: syscall counts are missing")
	}
	if f.Dropped > 0 || f.Completed != m.responses || f.Errored != m.teardowns {
		invalid("server flows completed/errored/dropped = %d/%d/%d, generator saw %d responses and tore down %d connections",
			f.Completed, f.Errored, f.Dropped, m.responses, m.teardowns)
	}
	if w.name == "churn_large" {
		if hitRatio < churnHitRatioMin || hitRatio > churnHitRatioMax {
			invalid("lfu.hit_ratio = %.3f left its band %.2f-%.2f", hitRatio, churnHitRatioMin, churnHitRatioMax)
		}
		if evictions < churnEvictionsMin {
			invalid("lfu.evictions_per_req = %.3f below %.2f", evictions, churnEvictionsMin)
		}
		if sendfileFrac < churnSendfileMin || sendfileFrac > churnSendfileMax {
			invalid("netkit.sendfile_frac = %.3f left its band %.2f-%.2f", sendfileFrac, churnSendfileMin, churnSendfileMax)
		}
	}
	return res
}

// responseBytes is the size of the op's response on the wire, head
// included.
func responseBytes(o *op) int {
	n := len(o.body)
	if o.variants != nil {
		n = len(o.variants[0])
	}
	return len(httpkit.StaticHeader(200, "OK", "text/html", n, false)) + n
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not in the per-layer table")
}
