package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	flux "github.com/flux-lang/flux"
	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/servers/imageserver"
)

// expFigure6 regenerates Figure 6: parameterize the generated simulator
// from a single-processor profiling run of the image server, then
// compare its predictions with actual runs as more processors become
// available (GOMAXPROCS stands in for the paper's SunFire CPU board
// enabling). The response cache is disabled so every request compresses,
// keeping the server CPU-bound as in the paper's setup.
func expFigure6(cfg benchConfig) error {
	compressWork := 15 * time.Millisecond
	profileDuration := 3 * time.Second
	measureDuration := 3 * time.Second
	cpuCounts := []int{1, 2, 4}
	loadFactors := []float64{0.5, 1.0, 2.0}
	if cfg.quick {
		profileDuration = 1500 * time.Millisecond
		measureDuration = 1500 * time.Millisecond
		cpuCounts = []int{1, 2}
		loadFactors = []float64{0.5, 2.0}
	}

	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)

	// --- Step 1: profile on a single processor (the paper's
	// one-CPU parameterization run).
	runtime.GOMAXPROCS(1)
	tel := profilingPlane(cfg)
	prog, baseRate, err := profileImageServer(tel, compressWork, profileDuration)
	if err != nil {
		return err
	}

	params := flux.ParamsFromTelemetry(prog, tel)
	serviceMean := params.NodeTime["Compress"]
	if serviceMean <= 0 {
		return fmt.Errorf("profiling run observed no Compress executions")
	}
	capacity1 := 1 / totalServiceMean(params)
	fmt.Printf("single-CPU profiling run (offered %0.f req/s): observed Compress mean %.2fms, capacity ~%.0f req/s/CPU\n\n",
		baseRate, 1000*serviceMean, capacity1)

	// --- Step 2: predicted vs actual for each CPU count and load.
	fmt.Printf("%-6s %-14s %-16s %-16s %-8s\n", "CPUs", "offered req/s", "predicted req/s", "measured req/s", "ratio")
	for _, cpus := range cpuCounts {
		for _, f := range loadFactors {
			offered := f * capacity1 * float64(cpus)

			params.CPUs = cpus
			params.Duration = 30
			params.Warmup = 3
			params.Seed = 1
			// Match the load generator's in-flight bound so overload
			// saturates instead of building an unbounded queue.
			params.MaxInFlight = 512
			params.Sources = map[string]flux.SimSourceParams{"Listen": {Rate: offered}}
			predicted := flux.Simulate(prog, params).Throughput

			runtime.GOMAXPROCS(cpus)
			measured, err := measureImageServer(cfg, compressWork, offered, measureDuration)
			if err != nil {
				return err
			}
			ratio := 0.0
			if predicted > 0 {
				ratio = measured / predicted
			}
			fmt.Printf("%-6d %-14.0f %-16.1f %-16.1f %-8.2f\n", cpus, offered, predicted, measured, ratio)
		}
	}
	fmt.Println("\npaper (Figure 6): predicted (dotted) and actual (solid) curves match closely;")
	fmt.Println("throughput saturates at each CPU count's capacity, doubling with the processors")
	return nil
}

// totalServiceMean sums the per-node CPU means along the dominant
// (cache-miss) path, the per-request CPU demand.
func totalServiceMean(p flux.SimParams) float64 {
	total := 0.0
	for _, node := range []string{"ReadRequest", "CheckCache", "ReadInFromDisk", "Compress", "StoreInCache", "Write", "Complete"} {
		total += p.NodeTime[node]
	}
	if total <= 0 {
		total = 0.004
	}
	return total
}

// profilingPlane is the telemetry plane a profiling run reports to:
// the shared -obs plane when there is one, else a private one. Path
// profiles are per compiled graph, so sharing never mixes runs.
func profilingPlane(cfg benchConfig) *flux.Telemetry {
	if cfg.tel != nil {
		return cfg.tel
	}
	return flux.NewTelemetry()
}

// profileImageServer runs the instrumented server under moderate load
// and returns its program and the offered rate used.
func profileImageServer(tel *flux.Telemetry, compressWork, duration time.Duration) (*flux.Program, float64, error) {
	srv, err := imageserver.New(imageserver.Config{
		Engine:       flux.ThreadPool,
		PoolSize:     8,
		CompressWork: compressWork,
		CacheBytes:   1, // disable caching: every request compresses
		Telemetry:    tel,
	})
	if err != nil {
		return nil, 0, err
	}
	stop, err := startTarget(srv)
	if err != nil {
		return nil, 0, err
	}

	rate := 0.5 / compressWork.Seconds() / 4 // ~half capacity
	loadgen.RunImageLoad(context.Background(), loadgen.ImageClientConfig{
		Addr:     srv.Addr(),
		Rate:     rate,
		Duration: duration,
		Warmup:   duration / 5,
		Seed:     3,
	})
	stop()
	return srv.Program(), rate, nil
}

// measureImageServer runs an uninstrumented server at the offered rate
// and returns the measured throughput.
func measureImageServer(cfg benchConfig, compressWork time.Duration, offered float64, duration time.Duration) (float64, error) {
	srv, err := imageserver.New(imageserver.Config{
		Engine:       flux.ThreadPool,
		PoolSize:     64,
		CompressWork: compressWork,
		CacheBytes:   1,
		Telemetry:    cfg.tel,
	})
	if err != nil {
		return 0, err
	}
	stop, err := startTarget(srv)
	if err != nil {
		return 0, err
	}
	res := loadgen.RunImageLoad(context.Background(), loadgen.ImageClientConfig{
		Addr:        srv.Addr(),
		Rate:        offered,
		Duration:    duration,
		Warmup:      duration / 5,
		Seed:        4,
		MaxInFlight: 512,
	})
	stop()
	return res.Throughput, nil
}
