// Command fluxbench regenerates every table and figure of the paper's
// evaluation (§4–§5) against this reproduction:
//
//	table1    servers and lines of code (Table 1)
//	fig3      web server throughput + latency vs clients (Figure 3)
//	web       SPECweb99-like mixed macro workload: keep-alive clients,
//	          static class mix + dynamic GET/POST (§4.2's conditions)
//	overload  offered load past saturation: throughput, p95, and shed
//	          counts with and without bounded admission (netkit plane)
//	fig4      BitTorrent latency, completions/s, network throughput (Figure 4)
//	game      game server heartbeat health vs players (§4.4)
//	fig5      compiler-generated simulator code for a node (Figure 5)
//	fig6      predicted vs actual image-server throughput, 1..4 CPUs (Figure 6)
//	profile   BitTorrent path profile: hot paths (§5.2)
//	deadlock  the §3.1.1 constraint-hoisting example
//	all       everything above
//
// Usage:
//
//	fluxbench -exp fig3 [-quick] [-obs addr]
//
// -quick shrinks client counts and durations for a fast smoke run; the
// default sizes produce the shapes reported in EXPERIMENTS.md.
//
// -obs opens the live ops endpoint (internal/ops) on addr and
// attaches one shared telemetry plane to every Flux server the
// experiments start: /metrics, /debug/pprof/*, and the /debug/flux/*
// JSON views (fluxtop's feed, and the §5.2 path profile on
// /debug/flux/paths) all serve mid-run.
// -obs-hold keeps the endpoint up that long after the experiments
// finish, so a scrape race never cuts an inspection short.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	flux "github.com/flux-lang/flux"
	"github.com/flux-lang/flux/internal/ops"
)

type benchConfig struct {
	quick bool
	// tel is non-nil only under -obs: the shared telemetry plane every
	// Flux target in the experiments attaches, feeding the ops endpoint.
	tel *flux.Telemetry
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig3, web, overload, fig4, bt, game, fig5, fig6, profile, deadlock, all")
	quick := flag.Bool("quick", false, "shrink durations and client counts for a smoke run")
	obs := flag.String("obs", "", "serve the live ops endpoint (/metrics, /debug/pprof, /debug/flux) on this address")
	obsHold := flag.Duration("obs-hold", 0, "keep the ops endpoint serving this long after the experiments finish")
	flag.Parse()

	cfg := benchConfig{quick: *quick}
	var opsSrv *ops.Server
	if *obs != "" {
		cfg.tel = flux.NewTelemetry()
		var err error
		opsSrv, err = ops.Serve(*obs, cfg.tel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fluxbench: ops endpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ops endpoint: http://%s/metrics  /debug/pprof/  /debug/flux/summary\n", opsSrv.Addr())
	}

	experiments := map[string]func(benchConfig) error{
		"table1":   expTable1,
		"fig3":     expFigure3,
		"web":      expWebMixed,
		"overload": expOverload,
		"fig4":     expFigure4,
		"bt":       expSwarm,
		"game":     expGame,
		"fig5":     expFigure5,
		"fig6":     expFigure6,
		"profile":  expProfile,
		"deadlock": expDeadlock,
	}
	order := []string{"table1", "deadlock", "fig5", "fig3", "web", "overload", "fig4", "game", "fig6", "profile"}

	run := func(name string) {
		fmt.Printf("\n================ %s ================\n", name)
		if err := experiments[name](cfg); err != nil {
			fmt.Fprintf(os.Stderr, "fluxbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	if *exp == "all" {
		for _, name := range order {
			run(name)
		}
	} else {
		if _, ok := experiments[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "fluxbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		run(*exp)
	}

	if opsSrv != nil && *obsHold > 0 {
		fmt.Printf("\nholding ops endpoint at http://%s for %v\n", opsSrv.Addr(), *obsHold)
		time.Sleep(*obsHold)
	}
	if opsSrv != nil {
		_ = opsSrv.Close()
	}
}
