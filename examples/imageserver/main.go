// The paper's running example (§2, Figure 2): the image-compression
// server, plus the §5.1 workflow — profile a run, derive simulator
// parameters, and predict throughput on more CPUs.
//
//	go run ./examples/imageserver [-addr host:port] [-engine thread|pool|event|steal] [-demo]
//
// With -demo (the default when no flags are given) the example starts
// the server, drives a short load against it, prints the hot-path
// profile, and compares measured throughput with the discrete-event
// simulator's prediction for 1, 2, and 4 CPUs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	flux "github.com/flux-lang/flux"
	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/servers/imageserver"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	engine := flag.String("engine", "pool", "runtime engine: thread, pool, event, or steal")
	demo := flag.Bool("demo", true, "run the built-in load + prediction demo, then exit")
	flag.Parse()

	tel := flux.NewTelemetry()
	srv, err := imageserver.New(imageserver.Config{
		Addr:         *addr,
		Engine:       engineKind(*engine),
		CompressWork: 2 * time.Millisecond, // calibrated compression cost
		Telemetry:    tel,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("image server (%s engine) listening on http://%s/img0/8\n", *engine, srv.Addr())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if err := srv.Start(ctx); err != nil {
		log.Fatal(err)
	}

	if !*demo {
		log.Println("serving until interrupted; GET /img<0-4>/<1-8>")
		// Interrupt cancels the context; that is the clean exit here.
		if err := srv.Wait(); err != nil && !errors.Is(err, context.Canceled) {
			log.Fatal(err)
		}
		return
	}

	// Drive a short fixed-rate load (the §5.1 load tester).
	res := loadgen.RunImageLoad(ctx, loadgen.ImageClientConfig{
		Addr:     srv.Addr(),
		Rate:     60,
		Duration: 3 * time.Second,
		Warmup:   500 * time.Millisecond,
		Seed:     1,
	})
	fmt.Printf("\nmeasured under load: %s\n", res)

	// Hot paths (§5.2).
	g := srv.Program().Graphs["Listen"]
	fmt.Printf("\n%s\n", tel.PathProfile(g, flux.ByTotalTime, 5).Render())

	// Predict performance on more CPUs from the observed parameters
	// (§5.1, Figure 6 workflow).
	params := flux.ParamsFromTelemetry(srv.Program(), tel)
	params.Duration, params.Warmup, params.Seed = 20, 2, 1
	params.Sources = map[string]flux.SimSourceParams{"Listen": {Rate: 200}}
	fmt.Println("predicted throughput at offered load 200 req/s:")
	for _, cpus := range []int{1, 2, 4} {
		params.CPUs = cpus
		r := flux.Simulate(srv.Program(), params)
		fmt.Printf("  %d CPU(s): %6.1f req/s  (mean latency %.1fms, utilization %.0f%%)\n",
			cpus, r.Throughput, 1000*r.MeanLatency, 100*r.Utilization)
	}

	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
}

// engineKind resolves the flag through the engine registry, so any
// registered engine ("steal", ...) is selectable; "pool" stays as the
// short alias for threadpool.
func engineKind(s string) flux.EngineKind {
	if s == "pool" {
		return flux.ThreadPool
	}
	if k, ok := flux.ParseEngineKind(s); ok {
		return k
	}
	log.Fatalf("unknown engine %q (want thread, pool, event, or steal)", s)
	return flux.ThreadPool
}
