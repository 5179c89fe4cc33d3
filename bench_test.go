// Package flux benchmarks: one testing.B entry point per table and
// figure of the paper's evaluation, plus ablation benches (lock
// granularity, reader/writer modes, profiling overhead). These are
// scaled to testing.B budgets; cmd/fluxbench runs the full sweeps and
// prints the paper-style tables (see EXPERIMENTS.md for how to run them
// and where measured numbers land).
package flux_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	flux "github.com/flux-lang/flux"
	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/servers/baseline/ctorrent"
	"github.com/flux-lang/flux/internal/servers/baseline/knotweb"
	"github.com/flux-lang/flux/internal/servers/baseline/sedaweb"
	"github.com/flux-lang/flux/internal/servers/bittorrent"
	"github.com/flux-lang/flux/internal/servers/gameserver"
	"github.com/flux-lang/flux/internal/servers/imageserver"
	"github.com/flux-lang/flux/internal/servers/webserver"
	"github.com/flux-lang/flux/internal/torrent"
)

// --- Table 1: lines of code --------------------------------------------------

// BenchmarkTable1LinesOfCode reports the Flux line counts of the four
// servers as benchmark metrics (LoC is a static property; the benchmark
// form keeps every Table/Figure reproducible through one command).
func BenchmarkTable1LinesOfCode(b *testing.B) {
	servers := map[string]string{
		"web":        webserver.FluxSource,
		"image":      imageserver.FluxSource,
		"bittorrent": bittorrent.FluxSource,
		"game":       gameserver.FluxSource,
	}
	for name, src := range servers {
		b.Run(name, func(b *testing.B) {
			var loc int
			for i := 0; i < b.N; i++ {
				loc = 0
				for _, line := range strings.Split(src, "\n") {
					t := strings.TrimSpace(line)
					if t != "" && !strings.HasPrefix(t, "//") {
						loc++
					}
				}
			}
			b.ReportMetric(float64(loc), "flux-lines")
		})
	}
}

// --- Figure 3: web server ----------------------------------------------------

type webServer interface {
	Addr() string
	Run(context.Context) error
}

func startWeb(b *testing.B, name string, files *loadgen.FileSet) (string, func()) {
	b.Helper()
	var srv webServer
	var err error
	switch name {
	case "flux-thread":
		srv, err = webserver.New(webserver.Config{Files: files, Engine: flux.ThreadPerFlow})
	case "flux-threadpool":
		srv, err = webserver.New(webserver.Config{Files: files, Engine: flux.ThreadPool, PoolSize: 32})
	case "flux-event":
		srv, err = webserver.New(webserver.Config{Files: files, Engine: flux.EventDriven})
	case "flux-steal":
		srv, err = webserver.New(webserver.Config{Files: files, Engine: flux.WorkStealing})
	case "knot-like":
		srv, err = knotweb.New(knotweb.Config{Files: files})
	case "haboob-like":
		srv, err = sedaweb.New(sedaweb.Config{Files: files, WorkersPerStage: 4})
	}
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Run(ctx) }()
	return srv.Addr(), func() { cancel(); <-done }
}

// BenchmarkFigure3WebThroughput measures requests/sec and mean latency
// for each web server at a fixed concurrency (16 clients), the heart of
// Figure 3's comparison.
func BenchmarkFigure3WebThroughput(b *testing.B) {
	files := loadgen.NewFileSet(1)
	for _, name := range []string{"flux-thread", "flux-threadpool", "flux-event", "knot-like", "haboob-like"} {
		b.Run(name, func(b *testing.B) {
			addr, stop := startWeb(b, name, files)
			defer stop()
			b.ResetTimer()
			res := loadgen.RunWebLoad(context.Background(), loadgen.WebClientConfig{
				Addr:     addr,
				Clients:  16,
				Files:    files,
				Duration: time.Duration(b.N) * 20 * time.Millisecond,
				Warmup:   0,
				Seed:     1,
			})
			b.StopTimer()
			b.ReportMetric(res.Throughput, "req/s")
			b.ReportMetric(float64(res.Latency.Mean.Microseconds()), "mean-latency-µs")
		})
	}
}

// BenchmarkSpecwebMixedKeepAlive measures the SPECweb99-like mixed
// macro workload — keep-alive clients issuing the static class mix plus
// ad-rotation dynamic GETs and form POSTs — the paper's own traffic
// shape for Figure 3 (cmd/fluxbench -exp web runs the full sweep).
func BenchmarkSpecwebMixedKeepAlive(b *testing.B) {
	files := loadgen.NewFileSet(1)
	for _, name := range []string{"flux-threadpool", "flux-event", "flux-steal", "knot-like", "haboob-like"} {
		b.Run(name, func(b *testing.B) {
			addr, stop := startWeb(b, name, files)
			defer stop()
			b.ResetTimer()
			res := loadgen.RunWebLoad(context.Background(), loadgen.WebClientConfig{
				Addr:            addr,
				Clients:         16,
				Files:           files,
				KeepAlive:       true,
				Duration:        time.Duration(b.N) * 20 * time.Millisecond,
				Warmup:          0,
				DynamicFraction: loadgen.DefaultDynamicFraction,
				PostFraction:    loadgen.DefaultPostFraction,
				Seed:            11,
			})
			b.StopTimer()
			b.ReportMetric(res.Throughput, "req/s")
			b.ReportMetric(float64(res.Latency.P95.Microseconds()), "p95-latency-µs")
			b.ReportMetric(float64(res.Reconnects), "reconnects")
		})
	}
}

// --- Figure 4: BitTorrent -----------------------------------------------------

func benchTorrentData(b *testing.B) (*torrent.MetaInfo, []byte) {
	b.Helper()
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(4)).Read(data)
	meta, err := torrent.New("bench.bin", "", data, 256*1024)
	if err != nil {
		b.Fatal(err)
	}
	return meta, data
}

// BenchmarkFigure4BitTorrent measures completions/sec and network
// throughput for the Flux peer versus the ctorrent-like baseline at a
// fixed swarm size.
func BenchmarkFigure4BitTorrent(b *testing.B) {
	meta, data := benchTorrentData(b)
	type btServer interface {
		Addr() string
		Run(context.Context) error
	}
	targets := map[string]func() (btServer, error){
		"flux-threadpool": func() (btServer, error) {
			return bittorrent.New(bittorrent.Config{Meta: meta, Content: data, Engine: flux.ThreadPool, PoolSize: 32})
		},
		"flux-event": func() (btServer, error) {
			return bittorrent.New(bittorrent.Config{Meta: meta, Content: data, Engine: flux.EventDriven})
		},
		"ctorrent-like": func() (btServer, error) {
			return ctorrent.New(ctorrent.Config{Meta: meta, Content: data})
		},
	}
	for _, name := range []string{"flux-threadpool", "flux-event", "ctorrent-like"} {
		b.Run(name, func(b *testing.B) {
			srv, err := targets[name]()
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); _ = srv.Run(ctx) }()
			defer func() { cancel(); <-done }()
			b.ResetTimer()
			res := loadgen.RunBTLoad(context.Background(), loadgen.BTClientConfig{
				Addr: srv.Addr(), Meta: meta,
				Clients:  4,
				Duration: time.Duration(b.N)*50*time.Millisecond + 500*time.Millisecond,
				Seed:     2,
			})
			b.StopTimer()
			b.ReportMetric(res.CompPerSec, "completions/s")
			b.ReportMetric(res.Mbps, "Mb/s")
		})
	}
}

// --- §4.4: game server ---------------------------------------------------------

// BenchmarkGameServerHeartbeat measures the server's per-turn state
// computation and the heartbeat observed by clients at growing player
// counts.
func BenchmarkGameServerHeartbeat(b *testing.B) {
	for _, players := range []int{8, 64} {
		b.Run(fmt.Sprintf("players=%d", players), func(b *testing.B) {
			srv, err := gameserver.New(gameserver.Config{
				Heartbeat: 20 * time.Millisecond, // accelerated for bench budgets
				Engine:    flux.ThreadPool, PoolSize: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); _ = srv.Run(ctx) }()
			defer func() { cancel(); <-done }()
			b.ResetTimer()
			res := loadgen.RunGameLoad(context.Background(), loadgen.GameClientConfig{
				Addr:     srv.Addr(),
				Players:  players,
				MoveHz:   50,
				Duration: time.Duration(b.N)*20*time.Millisecond + 400*time.Millisecond,
				Seed:     3,
			})
			b.StopTimer()
			_, meanTurn := srv.TickStats()
			b.ReportMetric(float64(meanTurn.Nanoseconds()), "turn-ns")
			b.ReportMetric(float64(res.InterArrival.P95.Microseconds()), "heartbeat-p95-µs")
		})
	}
}

// --- Figure 6: simulator prediction ---------------------------------------------

// BenchmarkFigure6SimVsActual profiles a 1-CPU image-server run, then
// reports predicted vs measured throughput at 2 CPUs under overload.
func BenchmarkFigure6SimVsActual(b *testing.B) {
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	compressWork := 2 * time.Millisecond

	runProfiled := func() (*flux.Program, *flux.Telemetry) {
		tel := flux.NewTelemetry()
		srv, err := imageserver.New(imageserver.Config{
			Engine: flux.ThreadPool, PoolSize: 8,
			CompressWork: compressWork, CacheBytes: 1, Telemetry: tel,
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Run(ctx) }()
		loadgen.RunImageLoad(context.Background(), loadgen.ImageClientConfig{
			Addr: srv.Addr(), Rate: 100, Duration: 800 * time.Millisecond, Warmup: 100 * time.Millisecond, Seed: 5,
		})
		cancel()
		<-done
		return srv.Program(), tel
	}

	runtime.GOMAXPROCS(1)
	prog, tel := runProfiled()
	params := flux.ParamsFromTelemetry(prog, tel)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		params.CPUs = 2
		params.Duration, params.Warmup, params.Seed = 20, 2, int64(i)
		params.Sources = map[string]flux.SimSourceParams{"Listen": {Rate: 2000}}
		r := flux.Simulate(prog, params)
		if i == b.N-1 {
			b.ReportMetric(r.Throughput, "predicted-req/s-2cpu")
			b.ReportMetric(100*r.Utilization, "predicted-util-%")
		}
	}
}

// --- §5.2: path profiling ---------------------------------------------------------

// BenchmarkPathProfileBitTorrent runs the profiled BT peer under load
// and reports the hot-path split (§5.2's transfer vs empty-poll paths).
func BenchmarkPathProfileBitTorrent(b *testing.B) {
	meta, data := benchTorrentData(b)
	tel := flux.NewTelemetry()
	srv, err := bittorrent.New(bittorrent.Config{
		Meta: meta, Content: data,
		Engine: flux.ThreadPool, PoolSize: 16,
		PollInterval: 300 * time.Microsecond,
		Telemetry:    tel,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Run(ctx) }()
	defer func() { cancel(); <-done }()

	b.ResetTimer()
	loadgen.RunBTLoad(context.Background(), loadgen.BTClientConfig{
		Addr: srv.Addr(), Meta: meta,
		Clients:  4,
		Duration: time.Duration(b.N)*50*time.Millisecond + 500*time.Millisecond,
		Seed:     6,
	})
	b.StopTimer()

	g := srv.Program().Graphs["Poll"]
	rows := tel.PathProfile(g, flux.ByCount, 0).Paths
	if len(rows) > 0 {
		b.ReportMetric(float64(rows[0].Count), "top-path-count")
	}
	var transferMean, pollCount float64
	for _, r := range rows {
		if strings.Contains(r.Label, "Request") {
			transferMean = float64(r.Mean().Microseconds())
		}
		if strings.Contains(r.Label, "ERROR") && strings.Contains(r.Label, "CheckSockets") {
			pollCount = float64(r.Count)
		}
	}
	b.ReportMetric(transferMean, "transfer-path-µs")
	b.ReportMetric(pollCount, "empty-poll-count")
}

// --- Ablations ----------------------------------------------------------------------

// BenchmarkAblationLockGranularity compares fine-grained constraints
// (the image server's three cache nodes) against one coarse constraint
// spanning the whole Handler abstract node (§2.5.2's granularity
// discussion), by simulation at saturation.
func BenchmarkAblationLockGranularity(b *testing.B) {
	fine, err := flux.Compile("imageserver.flux", imageserver.FluxSource)
	if err != nil {
		b.Fatal(err)
	}
	coarseSrc := strings.Replace(imageserver.FluxSource,
		"atomic CheckCache:{cache};",
		"atomic Image:{cache};\natomic CheckCache:{cache};", 1)
	coarse, err := flux.Compile("imageserver-coarse.flux", coarseSrc)
	if err != nil {
		b.Fatal(err)
	}
	simOnce := func(p *flux.Program, seed int64) float64 {
		params := flux.SimParams{
			CPUs: 4, Duration: 30, Warmup: 3, Seed: seed,
			Sources:    map[string]flux.SimSourceParams{"Listen": {Rate: 2000, Exponential: true}},
			NodeTime:   map[string]float64{"Compress": 0.002, "ReadRequest": 0.0001, "Write": 0.0001},
			BranchProb: map[string][]float64{"Handler": {0, 1}}, // all misses
		}
		return flux.Simulate(p, params).Throughput
	}
	b.Run("fine-grained", func(b *testing.B) {
		var t float64
		for i := 0; i < b.N; i++ {
			t = simOnce(fine, int64(i))
		}
		b.ReportMetric(t, "req/s")
	})
	b.Run("coarse-grained", func(b *testing.B) {
		var t float64
		for i := 0; i < b.N; i++ {
			t = simOnce(coarse, int64(i))
		}
		b.ReportMetric(t, "req/s")
	})
}

// BenchmarkAblationReaderWriter compares reader vs writer constraints on
// a read-mostly node by simulation, quantifying §2.5's motivation for
// reader modes.
func BenchmarkAblationReaderWriter(b *testing.B) {
	const tpl = `
Arrive () => (int v);
Lookup (int v) => ();
source Arrive => Flow;
Flow = Lookup;
atomic Lookup:{tableMODE};
`
	for _, mode := range []struct{ name, mark string }{{"reader", "?"}, {"writer", "!"}} {
		b.Run(mode.name, func(b *testing.B) {
			prog, err := flux.Compile("rw.flux", strings.Replace(tpl, "MODE", mode.mark, 1))
			if err != nil {
				b.Fatal(err)
			}
			var t float64
			for i := 0; i < b.N; i++ {
				r := flux.Simulate(prog, flux.SimParams{
					CPUs: 8, Duration: 20, Warmup: 2, Seed: int64(i),
					Sources:  map[string]flux.SimSourceParams{"Arrive": {Rate: 4000, Exponential: true}},
					NodeTime: map[string]float64{"Lookup": 0.002},
				})
				t = r.Throughput
			}
			b.ReportMetric(t, "req/s")
		})
	}
}

// BenchmarkAblationProfilingOverhead measures the cost of path
// profiling (§5.2 claims one arithmetic op and two timer calls per
// node): the same web server with and without a telemetry plane, whose
// per-path slots are the profile.
func BenchmarkAblationProfilingOverhead(b *testing.B) {
	files := loadgen.NewFileSet(1)
	for _, mode := range []string{"uninstrumented", "profiled"} {
		b.Run(mode, func(b *testing.B) {
			cfg := webserver.Config{Files: files, Engine: flux.ThreadPool, PoolSize: 16}
			if mode == "profiled" {
				cfg.Telemetry = flux.NewTelemetry()
			}
			srv, err := webserver.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); _ = srv.Run(ctx) }()
			defer func() { cancel(); <-done }()
			b.ResetTimer()
			res := loadgen.RunWebLoad(context.Background(), loadgen.WebClientConfig{
				Addr: srv.Addr(), Clients: 8, Files: files,
				Duration: time.Duration(b.N)*20*time.Millisecond + 300*time.Millisecond,
				Seed:     9,
			})
			b.StopTimer()
			b.ReportMetric(res.Throughput, "req/s")
		})
	}
}

// --- compile/runtime microbenchmarks ----------------------------------------------

// BenchmarkCompileImageServer measures end-to-end compilation of the
// Figure 2 program.
func BenchmarkCompileImageServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := flux.Compile("imageserver.flux", imageserver.FluxSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowExecution measures the runtime's per-flow overhead on a
// trivial three-node program (no I/O): coordination cost per request.
func BenchmarkFlowExecution(b *testing.B) {
	prog, err := flux.Compile("micro.flux", `
Gen () => (int v);
Work (int v) => (int v);
Done (int v) => ();
source Gen => Flow;
Flow = Work -> Done;
`)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []flux.EngineKind{flux.ThreadPerFlow, flux.ThreadPool, flux.EventDriven} {
		b.Run(kind.String(), func(b *testing.B) {
			n := 0
			bind := flux.NewBindings().
				BindSource("Gen", func(fl *flux.Flow) (flux.Record, error) {
					if n >= b.N {
						return nil, flux.ErrStop
					}
					n++
					return flux.Record{n}, nil
				}).
				BindNode("Work", func(fl *flux.Flow, in flux.Record) (flux.Record, error) { return in, nil }).
				BindNode("Done", func(fl *flux.Flow, in flux.Record) (flux.Record, error) { return nil, nil })
			srv, err := flux.New(prog, bind, flux.WithEngine(kind), flux.WithPoolSize(8))
			if err != nil {
				b.Fatal(err)
			}
			n = 0
			b.ResetTimer()
			if err := srv.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
	}
}
