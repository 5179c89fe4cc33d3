package main

import (
	"fmt"
	"time"

	flux "github.com/flux-lang/flux"
	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/servers/webserver"
	"github.com/flux-lang/flux/internal/telemetry"
)

// ctrlSummary compresses one run's SLO-controller trajectory — the
// ctrl/* windows a telemetry plane aggregated off the observer surface —
// into a line: how many steps ran, where the watermark travelled, the
// last acted-on window p95, and the peak shed rate.
func ctrlSummary(tel *flux.Telemetry) string {
	var wm, p95, shed []telemetry.Sample
	for _, ss := range tel.CtrlStreams() {
		switch ss.Queue {
		case runtime.CtrlWatermark:
			wm = ss.Samples
		case runtime.CtrlWindowP95:
			p95 = ss.Samples
		case runtime.CtrlShedRate:
			shed = ss.Samples
		}
	}
	if len(wm) == 0 {
		return "no control steps"
	}
	lo, hi := wm[0].V, wm[0].V
	for _, s := range wm {
		if s.V < lo {
			lo = s.V
		}
		if s.V > hi {
			hi = s.V
		}
	}
	var lastP95 time.Duration
	for i := len(p95) - 1; i >= 0; i-- {
		if p95[i].V > 0 {
			lastP95 = time.Duration(p95[i].V) * time.Microsecond
			break
		}
	}
	var maxShed int64
	for _, s := range shed {
		if s.V > maxShed {
			maxShed = s.V
		}
	}
	return fmt.Sprintf("steps=%d  watermark min=%d max=%d final=%d  last-p95=%v  peak-sheds/s=%d",
		len(wm), lo, hi, wm[len(wm)-1].V, lastP95.Round(100*time.Microsecond), maxShed)
}

// printRatesHeader prints the open-loop sweep's column header.
func printRatesHeader(rates []int) {
	fmt.Printf("%-16s", "offered req/s")
	for _, r := range rates {
		fmt.Printf("%14d", r)
	}
	fmt.Println()
}

// expOverload sweeps OPEN-LOOP offered load — a Poisson arrival process
// at a fixed requests/sec, arrivals independent of completions — across
// a 10× range spanning saturation, against three admission policies on
// the same event-engine web server:
//
//   - flux-static: the hand-picked queue-depth watermark (64) from the
//     PR 5 design, conn cap 2×.
//   - flux-adaptive: the SLO controller (target served p95 30ms) moving
//     the watermark and conn cap with AIMD each 100ms from the measured
//     completed-flow latency window.
//   - flux-event-unbd: no admission control — the control that shows
//     what open-loop overload does to an unbounded queue.
//
// Closed-loop sweeps (the old form of this experiment) cannot show the
// meltdown: every client waits for its response, so offered load sags
// to the service rate exactly when the server slows. The open-loop
// generator keeps offering, and the tables split what was offered from
// what was accepted (served + 503) and what was actually served
// (goodput) — plus arrivals the generator itself refused at its
// in-flight cap (client sheds), so no load disappears silently.
func expOverload(cfg benchConfig) error {
	const watermark = 64
	const targetP95 = 30 * time.Millisecond

	rates := []int{750, 1500, 3000, 7500}
	duration := 3 * time.Second
	warmup := 800 * time.Millisecond
	if cfg.quick {
		rates = []int{500, 2000}
		duration = time.Second
		warmup = 200 * time.Millisecond
	}

	files := loadgen.NewFileSet(1)
	startFlux := func(c webserver.Config) (string, func(), error) {
		c.Files = files
		c.Engine = flux.EventDriven
		c.PoolSize = 64
		// The shared -obs plane rides every target that brings no plane
		// of its own; the adaptive runs below each keep a per-run plane,
		// because their trajectory readout needs one plane per run.
		if c.Telemetry == nil {
			c.Telemetry = cfg.tel
		}
		// Slow-loris hardening rides along on the bounded targets: a
		// stalled request head or a dead keep-alive peer is reaped and
		// counted instead of pinning capacity for the whole run.
		if c.AdmitWatermark > 0 || c.TargetP95 > 0 {
			c.HeaderTimeout = 2 * time.Second
			c.IdleTimeout = 2 * time.Second
		}
		srv, err := webserver.New(c)
		if err != nil {
			return "", nil, err
		}
		stop, err := startTarget(srv)
		if err != nil {
			return "", nil, err
		}
		return srv.Addr(), stop, nil
	}

	// One fresh telemetry plane per flux-adaptive run, in rate order: it
	// is the run's observer, so the controller's Sink publishes each
	// control step's ctrl/* windows into it, and the trajectory printout
	// below is just a snapshot read — no ad-hoc stream scraping.
	var traces []*flux.Telemetry
	targets := []webTarget{
		{"flux-static", func(*loadgen.FileSet) (string, func(), error) {
			return startFlux(webserver.Config{AdmitWatermark: watermark, MaxConns: 2 * watermark})
		}},
		{"flux-adaptive", func(*loadgen.FileSet) (string, func(), error) {
			tr := flux.NewTelemetry()
			traces = append(traces, tr)
			return startFlux(webserver.Config{TargetP95: targetP95, Telemetry: tr})
		}},
		{"flux-event-unbd", func(*loadgen.FileSet) (string, func(), error) {
			return startFlux(webserver.Config{})
		}},
	}

	fmt.Printf("open-loop overload sweep: Poisson arrivals, single-request connections,\n"+
		"SPECweb99-like mix (%.0f%% dynamic); static watermark %d, adaptive SLO p95 %v\n\n",
		100*loadgen.DefaultDynamicFraction, watermark, targetP95)
	printRatesHeader(rates)

	results, err := runWebSweep(targets, files, rates, func(addr string, r int) loadgen.WebClientConfig {
		return loadgen.WebClientConfig{
			Addr:            addr,
			Files:           files,
			OfferedRate:     float64(r),
			Duration:        duration,
			Warmup:          warmup,
			DynamicFraction: loadgen.DefaultDynamicFraction,
			PostFraction:    loadgen.DefaultPostFraction,
			Seed:            307,
		}
	})
	if err != nil {
		return err
	}

	printResultTable("goodput (served requests/sec):", targets, results,
		func(res loadgen.WebResult) string { return fmt.Sprintf("%.0f", res.Goodput) })
	printResultTable("\np95 latency (served requests):", targets, results,
		func(res loadgen.WebResult) string { return fmtLat(res.Latency.P95) })
	printResultTable("\nserver sheds (503 overload answers):", targets, results,
		func(res loadgen.WebResult) string { return fmt.Sprintf("%d", res.Sheds) })
	printResultTable("\nclient sheds (generator in-flight cap):", targets, results,
		func(res loadgen.WebResult) string { return fmt.Sprintf("%d", res.ClientSheds) })
	printResultTable("\nerrors:", targets, results,
		func(res loadgen.WebResult) string { return fmt.Sprintf("%d", res.Errors) })

	fmt.Println("\nadaptive control trajectory (per offered rate):")
	for i, tr := range traces {
		if i < len(rates) {
			fmt.Printf("%8d/s  %s\n", rates[i], ctrlSummary(tr))
		}
	}

	fmt.Println("\ngraceful degradation, open loop: past saturation the bounded targets convert")
	fmt.Println("excess arrivals into prompt 503s and hold served p95 roughly flat — the adaptive")
	fmt.Println("target finds its own admission point per rate instead of trusting a hand-picked")
	fmt.Println("watermark. flux-event-unbd queues every arrival: served p95 grows toward the")
	fmt.Println("run length while goodput stays pinned at the same ceiling, and the generator's")
	fmt.Println("in-flight cap (client sheds) is the only thing bounding the backlog")
	return nil
}
