package main

import (
	"context"
	"fmt"
	"os"
	"time"

	flux "github.com/flux-lang/flux"
	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/servers/baseline/knotweb"
	"github.com/flux-lang/flux/internal/servers/baseline/sedaweb"
	"github.com/flux-lang/flux/internal/servers/webserver"
	"github.com/flux-lang/flux/internal/servers/webserver/fscript"
)

// webTarget abstracts "a web server listening somewhere" across the
// Flux engines and the two baselines.
type webTarget struct {
	name  string
	start func(files *loadgen.FileSet) (addr string, stop func(), err error)
}

// runWebSweep starts each target once per client count, drives the
// configured load against it, and returns the per-target results in
// sweep order. Both web experiments share this scaffolding; they differ
// only in client configuration and which metrics they print.
func runWebSweep(targets []webTarget, files *loadgen.FileSet, clients []int,
	cfgFor func(addr string, clients int) loadgen.WebClientConfig) (map[string][]loadgen.WebResult, error) {

	results := make(map[string][]loadgen.WebResult)
	for _, tgt := range targets {
		for _, c := range clients {
			addr, stop, err := tgt.start(files)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", tgt.name, err)
			}
			res := loadgen.RunWebLoad(context.Background(), cfgFor(addr, c))
			stop()
			results[tgt.name] = append(results[tgt.name], res)
		}
	}
	return results, nil
}

// printClientsHeader prints the sweep's column header.
func printClientsHeader(clients []int) {
	fmt.Printf("%-16s", "clients")
	for _, c := range clients {
		fmt.Printf("%14d", c)
	}
	fmt.Println()
}

// printResultTable prints one metric row per target across the sweep.
func printResultTable(title string, targets []webTarget,
	results map[string][]loadgen.WebResult, cell func(loadgen.WebResult) string) {

	fmt.Println(title)
	for _, tgt := range targets {
		fmt.Printf("%-16s", tgt.name)
		for _, res := range results[tgt.name] {
			fmt.Printf("%14s", cell(res))
		}
		fmt.Println()
	}
}

func fmtTput(res loadgen.WebResult) string { return fmt.Sprintf("%.0f", res.Throughput) }

func fmtLat(d time.Duration) string { return d.Round(10 * time.Microsecond).String() }

// expFigure3 regenerates Figure 3: throughput and mean latency versus
// simultaneous clients for the three Flux web servers, the knot-like
// threaded baseline, and the haboob-like staged baseline.
//
// The paper's shape: flux-threadpool ~ flux-event ~ knot at the top,
// haboob notably below, flux thread-per-client worst as clients grow;
// the event server shows a latency hiccup at low client counts.
func expFigure3(cfg benchConfig) error {
	clients := []int{1, 4, 16, 64, 128}
	duration := 4 * time.Second
	warmup := time.Second
	if cfg.quick {
		clients = []int{1, 8, 32}
		duration = 1500 * time.Millisecond
		warmup = 300 * time.Millisecond
	}

	files := loadgen.NewFileSet(2)
	targets := webTargets(cfg, files)

	fmt.Printf("SPECweb99-like static load, 5 requests per keep-alive connection, corpus %d MB\n\n",
		files.TotalBytes()>>20)
	printClientsHeader(clients)

	results, err := runWebSweep(targets, files, clients, func(addr string, c int) loadgen.WebClientConfig {
		return loadgen.WebClientConfig{
			Addr:     addr,
			Clients:  c,
			Files:    files,
			Duration: duration,
			Warmup:   warmup,
			Seed:     101,
		}
	})
	if err != nil {
		return err
	}

	printResultTable("throughput (requests/sec):", targets, results, fmtTput)
	printResultTable("\nmean latency:", targets, results,
		func(res loadgen.WebResult) string { return fmtLat(res.Latency.Mean) })
	fmt.Println("\npaper (Figure 3): knot ~ flux-threadpool ~ flux-event > haboob; flux-thread worst.")
	fmt.Println("the paper's low-client event-server latency hiccup (admission waiting out a source")
	fmt.Println("poll timeout) does not reproduce: no engine has a poll clock, since sources block")
	fmt.Println("on goroutines of their own and the connection plane injects connections directly")
	fmt.Println()
	return writePathComparison(cfg)
}

// writePathComparison measures the static write paths head to head on
// the flux-threadpool server under the Figure 3 static load: the
// vectored zero-copy path (immutable header blob + cached body in one
// writev(2)), and the same path with large bodies streamed via
// sendfile(2) from a materialized corpus.
func writePathComparison(cfg benchConfig) error {
	clients := []int{16, 64}
	duration := 3 * time.Second
	warmup := 500 * time.Millisecond
	if cfg.quick {
		clients = []int{8}
		duration = 800 * time.Millisecond
		warmup = 150 * time.Millisecond
	}

	variants := []struct {
		name        string
		materialize bool
	}{
		{"writev", false},
		{"writev+sendfile", true},
	}
	var targets []webTarget
	for _, v := range variants {
		v := v
		targets = append(targets, webTarget{v.name, func(*loadgen.FileSet) (string, func(), error) {
			// Each variant serves its own corpus instance so the sendfile
			// arm's materialization cannot leak into the others; contents
			// are deterministic, so clients agree regardless.
			files := loadgen.NewFileSet(2)
			var cleanup func()
			if v.materialize {
				dir, err := os.MkdirTemp("", "fluxbench-corpus-")
				if err != nil {
					return "", nil, err
				}
				cleanup = func() { files.Close(); os.RemoveAll(dir) }
				if err := files.Materialize(dir); err != nil {
					cleanup()
					return "", nil, err
				}
			}
			srv, err := webserver.New(webserver.Config{
				Files:    files,
				Engine:   flux.ThreadPool,
				PoolSize: 64,
			})
			if err != nil {
				if cleanup != nil {
					cleanup()
				}
				return "", nil, err
			}
			stop, err := startTarget(srv)
			if err != nil {
				if cleanup != nil {
					cleanup()
				}
				return "", nil, err
			}
			return srv.Addr(), func() {
				stop()
				if cleanup != nil {
					cleanup()
				}
			}, nil
		}})
	}

	clientFiles := loadgen.NewFileSet(2)
	fmt.Println("static write paths, flux-threadpool, same SPECweb99-like static load:")
	printClientsHeader(clients)
	results, err := runWebSweep(targets, clientFiles, clients, func(addr string, c int) loadgen.WebClientConfig {
		return loadgen.WebClientConfig{
			Addr:     addr,
			Clients:  c,
			Files:    clientFiles,
			Duration: duration,
			Warmup:   warmup,
			Seed:     101,
		}
	})
	if err != nil {
		return err
	}
	printResultTable("throughput (requests/sec):", targets, results, fmtTput)
	printResultTable("\nmean latency:", targets, results,
		func(res loadgen.WebResult) string { return fmtLat(res.Latency.Mean) })
	fmt.Println("\nwritev sends the interned header and the cached body in one vectored syscall")
	fmt.Println("(0 allocs/response); the sendfile arm additionally streams bodies >= 64 KB from")
	fmt.Println("the materialized corpus without the bytes ever entering user space")
	return nil
}

// expWebMixed runs the SPECweb99-like mixed macro workload under the
// paper's own traffic shape (§4.2): keep-alive clients holding
// persistent connections and issuing back-to-back requests from the
// full mix — static GETs split 35/50/14/1 over the four file classes,
// ad-rotation dynamic GETs, and form POSTs (~30% dynamic overall) — for
// all four Flux engines and both hand-written baselines.
func expWebMixed(cfg benchConfig) error {
	clients := []int{4, 16, 64, 128}
	duration := 4 * time.Second
	warmup := time.Second
	if cfg.quick {
		clients = []int{4, 16}
		duration = 1200 * time.Millisecond
		warmup = 200 * time.Millisecond
	}

	// The dynamic share must ride the compiled FScript path: a stale or
	// missing pages_compiled.go would silently re-pay the interpreter
	// tax and invalidate the numbers, so fail loudly instead.
	probe, err := fscript.NewBenchPages()
	if err != nil {
		return err
	}
	if !probe.CompiledActive() {
		return fmt.Errorf("compiled dynamic-page path inactive (stale pages_compiled.go? " +
			"run `go generate ./internal/servers/webserver/fscript`)")
	}

	files := loadgen.NewFileSet(2)
	targets := webTargets(cfg, files)

	fmt.Printf("SPECweb99-like mixed load: keep-alive connections, %.0f%% dynamic "+
		"(of which %.0f%% POSTs), corpus %d MB\n\n",
		100*loadgen.DefaultDynamicFraction, 100*loadgen.DefaultPostFraction,
		files.TotalBytes()>>20)
	printClientsHeader(clients)

	results, err := runWebSweep(targets, files, clients, func(addr string, c int) loadgen.WebClientConfig {
		return loadgen.WebClientConfig{
			Addr:            addr,
			Clients:         c,
			Files:           files,
			KeepAlive:       true,
			Duration:        duration,
			Warmup:          warmup,
			DynamicFraction: loadgen.DefaultDynamicFraction,
			PostFraction:    loadgen.DefaultPostFraction,
			Seed:            211,
		}
	})
	if err != nil {
		return err
	}

	printResultTable("throughput (requests/sec):", targets, results, fmtTput)
	printResultTable("\np50 latency:", targets, results,
		func(res loadgen.WebResult) string { return fmtLat(res.Latency.P50) })
	printResultTable("\np95 latency:", targets, results,
		func(res loadgen.WebResult) string { return fmtLat(res.Latency.P95) })
	fmt.Printf("\nper-class latency at %d clients:\n", clients[len(clients)-1])
	for _, tgt := range targets {
		rows := results[tgt.name]
		fmt.Printf("%-16s %s\n", tgt.name, rows[len(rows)-1].ClassBreakdown())
	}
	fmt.Println("\npaper (§4.2): persistent connections + the mixed class/dynamic workload are the")
	fmt.Println("conditions of Figure 3. Dynamic pages run as templates compiled to native Go")
	fmt.Println("(fluxc -fscript) on every server. On the Flux event/steal engines the per-class")
	fmt.Println("table shows dynamic latency above static (MarkBlocking offloads script work),")
	fmt.Println("while the baselines run scripts inline and show uniform per-class latency")
	return nil
}

// lifecycleServer is the Start/Shutdown surface every target — Flux or
// baseline — now exposes; the harness drives them uniformly.
type lifecycleServer interface {
	Start(ctx context.Context) error
	Shutdown(ctx context.Context) error
}

// startTarget starts a server and returns the stop hook: a graceful
// shutdown bounded by a drain deadline.
func startTarget(srv lifecycleServer) (func(), error) {
	if err := srv.Start(context.Background()); err != nil {
		return nil, err
	}
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}, nil
}

func webTargets(cfg benchConfig, files *loadgen.FileSet) []webTarget {
	fluxStart := func(kind flux.EngineKind) func(*loadgen.FileSet) (string, func(), error) {
		return func(files *loadgen.FileSet) (string, func(), error) {
			c := webserver.Config{
				Files:     files,
				Engine:    kind,
				PoolSize:  64,
				Telemetry: cfg.tel,
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
	}
	return []webTarget{
		{"flux-thread", fluxStart(flux.ThreadPerFlow)},
		{"flux-threadpool", fluxStart(flux.ThreadPool)},
		{"flux-event", fluxStart(flux.EventDriven)},
		{"flux-steal", fluxStart(flux.WorkStealing)},
		{"knot-like", func(files *loadgen.FileSet) (string, func(), error) {
			srv, err := knotweb.New(knotweb.Config{Files: files})
			if err != nil {
				return "", nil, err
			}
			stop, err := startTarget(srv)
			if err != nil {
				return "", nil, err
			}
			return srv.Addr(), stop, nil
		}},
		{"haboob-like", func(files *loadgen.FileSet) (string, func(), error) {
			srv, err := sedaweb.New(sedaweb.Config{Files: files, WorkersPerStage: 4, QueueDepth: 64})
			if err != nil {
				return "", nil, err
			}
			stop, err := startTarget(srv)
			if err != nil {
				return "", nil, err
			}
			return srv.Addr(), stop, nil
		}},
	}
}
