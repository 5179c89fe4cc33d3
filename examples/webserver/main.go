// The paper's HTTP/1.1 web server (§4.2): SPECweb99-like static corpus
// plus dynamic FScript pages, on any of the Flux runtimes.
//
//	go run ./examples/webserver [-addr host:port] [-engine thread|pool|event|steal] [-dirs n] [-demo]
//
// With -demo the example drives its own SPECweb-like client swarm and
// prints throughput/latency, then exits.
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
	"github.com/flux-lang/flux/internal/servers/webserver"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	engine := flag.String("engine", "pool", "runtime engine: thread, pool, event, or steal")
	dirs := flag.Int("dirs", 1, "SPECweb-like corpus directories (~5 MB each)")
	demo := flag.Bool("demo", true, "drive a built-in load test, then exit")
	flag.Parse()

	files := loadgen.NewFileSet(*dirs)
	srv, err := webserver.New(webserver.Config{
		Addr:   *addr,
		Files:  files,
		Engine: engineKind(*engine),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("web server (%s engine) on http://%s%s  (corpus: %d MB; dynamic: /dynamic?n=5000, /adrotate?u=1; POST /post)\n",
		*engine, srv.Addr(), files.Path(0, 1, 1), files.TotalBytes()>>20)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if err := srv.Start(ctx); err != nil {
		log.Fatal(err)
	}

	if !*demo {
		// Interrupt cancels the context; that is the clean exit here.
		if err := srv.Wait(); err != nil && !errors.Is(err, context.Canceled) {
			log.Fatal(err)
		}
		return
	}

	res := loadgen.RunWebLoad(ctx, loadgen.WebClientConfig{
		Addr:            srv.Addr(),
		Clients:         16,
		Files:           files,
		KeepAlive:       true,
		Duration:        3 * time.Second,
		Warmup:          500 * time.Millisecond,
		DynamicFraction: loadgen.DefaultDynamicFraction,
		PostFraction:    loadgen.DefaultPostFraction,
		Seed:            7,
	})
	fmt.Printf("\n16-client SPECweb99-like keep-alive mixed load: %s\n", res)
	fmt.Printf("per-class latency: %s\n", res.ClassBreakdown())
	hits, misses, evictions := srv.CacheStats()
	fmt.Printf("cache: %d hits, %d misses, %d evictions\n", hits, misses, evictions)

	// Graceful teardown: stop admission, drain in-flight requests.
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
