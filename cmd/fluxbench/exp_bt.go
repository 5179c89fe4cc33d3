package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	flux "github.com/flux-lang/flux"
	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/servers/baseline/ctorrent"
	"github.com/flux-lang/flux/internal/servers/bittorrent"
	"github.com/flux-lang/flux/internal/torrent"
)

// benchTorrent builds the shared test file. The paper uses 54 MB; the
// default here is 8 MB (quick: 2 MB) so sweeps finish in CI time — the
// figure's shape (network saturation, who wins pre-saturation) is
// unchanged.
func benchTorrent(cfg benchConfig) (*torrent.MetaInfo, []byte, error) {
	size := 8 << 20
	if cfg.quick {
		size = 2 << 20
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(13)).Read(data)
	meta, err := torrent.New("bench.bin", "", data, 256*1024)
	return meta, data, err
}

type btTarget struct {
	name  string
	start func(meta *torrent.MetaInfo, data []byte) (addr string, stop func(), err error)
}

// expFigure4 regenerates Figure 4: per-download latency, completions per
// second, and network throughput versus simultaneous clients, for the
// three Flux peers and the ctorrent-like baseline.
func expFigure4(cfg benchConfig) error {
	meta, data, err := benchTorrent(cfg)
	if err != nil {
		return err
	}
	clients := []int{1, 4, 8, 16}
	duration := 5 * time.Second
	warmup := time.Second
	if cfg.quick {
		clients = []int{1, 4}
		duration = 2 * time.Second
		warmup = 400 * time.Millisecond
	}

	targets := btTargets(cfg)
	fmt.Printf("shared file: %d MB, %d pieces; clients re-download continuously\n\n",
		meta.Length>>20, meta.NumPieces())
	fmt.Printf("%-16s", "clients")
	for _, c := range clients {
		fmt.Printf("%16d", c)
	}
	fmt.Println()

	type row struct {
		comp []float64
		mbps []float64
		lat  []time.Duration
	}
	results := make(map[string]*row)
	for _, tgt := range targets {
		r := &row{}
		for _, c := range clients {
			addr, stop, err := tgt.start(meta, data)
			if err != nil {
				return fmt.Errorf("%s: %w", tgt.name, err)
			}
			res := loadgen.RunBTLoad(context.Background(), loadgen.BTClientConfig{
				Addr: addr, Meta: meta,
				Clients:  c,
				Duration: duration,
				Warmup:   warmup,
				Seed:     7,
			})
			stop()
			r.comp = append(r.comp, res.CompPerSec)
			r.mbps = append(r.mbps, res.Mbps)
			r.lat = append(r.lat, res.PieceLatency.Mean)
		}
		results[tgt.name] = r
	}

	fmt.Println("completions per second:")
	for _, tgt := range targets {
		fmt.Printf("%-16s", tgt.name)
		for _, v := range results[tgt.name].comp {
			fmt.Printf("%16.2f", v)
		}
		fmt.Println()
	}
	fmt.Println("\nnetwork throughput (Mb/s):")
	for _, tgt := range targets {
		fmt.Printf("%-16s", tgt.name)
		for _, v := range results[tgt.name].mbps {
			fmt.Printf("%16.0f", v)
		}
		fmt.Println()
	}
	fmt.Println("\nmean piece latency:")
	for _, tgt := range targets {
		fmt.Printf("%-16s", tgt.name)
		for _, v := range results[tgt.name].lat {
			fmt.Printf("%16s", v.Round(10*time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Println("\npaper (Figure 4): all implementations saturate the network;")
	fmt.Println("Flux slightly below CTorrent before saturation")
	return nil
}

func btTargets(cfg benchConfig) []btTarget {
	fluxStart := func(kind flux.EngineKind) func(*torrent.MetaInfo, []byte) (string, func(), error) {
		return func(meta *torrent.MetaInfo, data []byte) (string, func(), error) {
			srv, err := bittorrent.New(bittorrent.Config{
				Meta: meta, Content: data,
				Engine:    kind,
				PoolSize:  64,
				Telemetry: cfg.tel,
			})
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
	return []btTarget{
		{"flux-thread", fluxStart(flux.ThreadPerFlow)},
		{"flux-threadpool", fluxStart(flux.ThreadPool)},
		{"flux-event", fluxStart(flux.EventDriven)},
		{"ctorrent-like", func(meta *torrent.MetaInfo, data []byte) (string, func(), error) {
			srv, err := ctorrent.New(ctorrent.Config{Meta: meta, Content: data})
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

// expSwarm sweeps a real swarm against the Flux seeder: every load peer
// speaks the full wire protocol (handshake, bitfield, tit-for-tat
// choking, rarest-first, pipelining with endgame cancels, keep-alives)
// and loops — completed downloads reset into fresh arrivals — so
// leechers exchange verified pieces among themselves while the seeder
// runs netkit admission with a connection cap. Reported per sweep
// point: completions/s, download throughput, piece-latency quantiles,
// counted sheds, and the seeder's per-message-type receive counters.
func expSwarm(cfg benchConfig) error {
	size := 1 << 20 // 16 pieces of 64 KB
	if cfg.quick {
		size = 256 << 10
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(17)).Read(data)
	meta, err := torrent.New("swarm.bin", "", data, 64*1024)
	if err != nil {
		return err
	}

	peersSweep := []int{32, 64, 128, 256}
	duration := 8 * time.Second
	warmup := 2 * time.Second
	maxConns := 160 // < the largest sweep point: the cap sheds, peers reroute
	if cfg.quick {
		peersSweep = []int{8, 16}
		duration = 3 * time.Second
		warmup = 500 * time.Millisecond
		maxConns = 0
	}

	fmt.Printf("swarm file: %d KB, %d pieces; looping leechers, seed + 4 random neighbors each\n",
		meta.Length>>10, meta.NumPieces())
	fmt.Printf("seeder: steal engine, tit-for-tat MaxUnchoked=32, MaxConns=%d\n\n", maxConns)

	type point struct {
		res  loadgen.SwarmResult
		shed uint64
		msgs map[string]uint64
	}
	points := make([]point, 0, len(peersSweep))
	for _, n := range peersSweep {
		srv, err := bittorrent.New(bittorrent.Config{
			Meta: meta, Content: data,
			Engine:           flux.WorkStealing,
			PoolSize:         64,
			MaxUnchoked:      32,
			ChokeInterval:    250 * time.Millisecond,
			HandshakeTimeout: 5 * time.Second,
			IdleTimeout:      60 * time.Second,
			MaxConns:         maxConns,
			Telemetry:        cfg.tel,
		})
		if err != nil {
			return err
		}
		stop, err := startTarget(srv)
		if err != nil {
			return err
		}
		res, err := loadgen.RunSwarm(context.Background(), loadgen.SwarmConfig{
			SeedAddr:       srv.Addr(),
			Meta:           meta,
			Peers:          n,
			Neighbors:      4,
			Duration:       duration,
			Warmup:         warmup,
			Seed:           29,
			ChokeInterval:  250 * time.Millisecond,
			MaxUnchoked:    4,
			RequestTimeout: 5 * time.Second,
		})
		shed := srv.PlaneStats().Shed
		msgs := srv.MsgCounts()
		stop()
		if err != nil {
			return err
		}
		points = append(points, point{res, shed, msgs})
	}

	fmt.Printf("%-18s", "peers")
	for _, n := range peersSweep {
		fmt.Printf("%14d", n)
	}
	fmt.Println()
	row := func(label string, f func(point) string) {
		fmt.Printf("%-18s", label)
		for _, p := range points {
			fmt.Printf("%14s", f(p))
		}
		fmt.Println()
	}
	row("completions/s", func(p point) string { return fmt.Sprintf("%.2f", p.res.CompPerSec) })
	row("download Mb/s", func(p point) string { return fmt.Sprintf("%.0f", p.res.Mbps) })
	row("piece p50", func(p point) string { return p.res.PieceLatency.P50.Round(10 * time.Microsecond).String() })
	row("piece p95", func(p point) string { return p.res.PieceLatency.P95.Round(10 * time.Microsecond).String() })
	row("sheds", func(p point) string { return fmt.Sprintf("%d", p.shed) })
	row("swarm errors", func(p point) string { return fmt.Sprintf("%d", p.res.Errors) })

	fmt.Println("\nseeder messages received per type:")
	for _, kind := range []string{"interested", "request", "have", "bitfield", "keepalive", "piece", "closed"} {
		row("  "+kind, func(p point) string { return fmt.Sprintf("%d", p.msgs[kind]) })
	}
	fmt.Println("\npaper (§4.3): the Flux peer sustains swarm traffic; overload control")
	fmt.Println("sheds admissions past the connection cap instead of queueing unboundedly")
	return nil
}

// expProfile regenerates the §5.2 path-profiling result: the BitTorrent
// peer's most expensive path is the block transfer, while the most
// frequently executed path is the empty poll ending in ERROR.
func expProfile(cfg benchConfig) error {
	meta, data, err := benchTorrent(cfg)
	if err != nil {
		return err
	}
	tel := profilingPlane(cfg)
	srv, err := bittorrent.New(bittorrent.Config{
		Meta: meta, Content: data,
		Engine:       flux.ThreadPool,
		PoolSize:     32,
		PollInterval: 500 * time.Microsecond,
		Telemetry:    tel,
	})
	if err != nil {
		return err
	}
	stop, err := startTarget(srv)
	if err != nil {
		return err
	}

	duration := 5 * time.Second
	clients := 25
	if cfg.quick {
		duration = 2 * time.Second
		clients = 5
	}
	res := loadgen.RunBTLoad(context.Background(), loadgen.BTClientConfig{
		Addr: srv.Addr(), Meta: meta,
		Clients:  clients,
		Duration: duration,
		Warmup:   duration / 5,
		Seed:     25,
	})
	stop()

	fmt.Printf("load: %d clients, %v — %s\n\n", clients, duration, res)
	g := srv.Program().Graphs["Poll"]
	fmt.Println(tel.PathProfile(g, flux.ByCount, 8).Render())
	fmt.Println(tel.PathProfile(g, flux.ByTotalTime, 8).Render())
	fmt.Println("paper (§5.2): transfer path most expensive (0.295 ms); empty-poll ERROR path most")
	fmt.Println("frequent (780,510 executions vs 313,994 transfers, 13% of execution time)")
	return nil
}
