package main

import (
	"context"
	"fmt"
	"time"

	flux "github.com/flux-lang/flux"
	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/servers/gameserver"
)

// expGame regenerates the §4.4 result: the Tag server's 10 Hz heartbeat
// holds as the player count grows, with no appreciable difference
// between runtime engines — the per-turn state computation is identical
// and far below the heartbeat budget.
func expGame(cfg benchConfig) error {
	players := []int{8, 32, 64, 128}
	duration := 3 * time.Second
	if cfg.quick {
		players = []int{8, 32}
		duration = 1500 * time.Millisecond
	}

	engines := []struct {
		name string
		kind flux.EngineKind
	}{
		{"flux-thread", flux.ThreadPerFlow},
		{"flux-threadpool", flux.ThreadPool},
		{"flux-event", flux.EventDriven},
		{"flux-steal", flux.WorkStealing},
	}

	fmt.Println("10 Hz heartbeat; clients move at 10 Hz; measured: state inter-arrival p95 and")
	fmt.Println("server state-computation time per turn")
	for _, eng := range engines {
		fmt.Printf("\n%s:\n", eng.name)
		fmt.Printf("  %-10s %-18s %-18s %-14s\n", "players", "interarrival p95", "mean turn compute", "states seen")
		for _, n := range players {
			srv, err := gameserver.New(gameserver.Config{
				Heartbeat: 100 * time.Millisecond,
				Engine:    eng.kind,
				PoolSize:  16,
				Telemetry: cfg.tel,
			})
			if err != nil {
				return err
			}
			stop, err := startTarget(srv)
			if err != nil {
				return err
			}

			res := loadgen.RunGameLoad(context.Background(), loadgen.GameClientConfig{
				Addr:     srv.Addr(),
				Players:  n,
				MoveHz:   10,
				Duration: duration,
				Warmup:   duration / 5,
				Seed:     int64(n),
			})
			_, meanTurn := srv.TickStats()
			stop()
			fmt.Printf("  %-10d %-18v %-18v %-14d\n",
				n, res.InterArrival.P95.Round(time.Millisecond), meanTurn, res.StatesReceived)
		}
	}
	fmt.Println("\npaper (§4.4): no appreciable difference between the traditional implementation")
	fmt.Println("and the Flux versions; the 10 Hz turn rate dominates latency")
	return nil
}
