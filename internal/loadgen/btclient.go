package loadgen

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"sync"
	"time"

	"github.com/flux-lang/flux/internal/metrics"
	"github.com/flux-lang/flux/internal/torrent"
)

// BTClientConfig reproduces §4.3's BitTorrent benchmark: a series of
// clients continuously request randomly distributed pieces of the test
// file from one peer holding a complete copy; a client that finishes
// disconnects (and, here, immediately reconnects to keep the offered
// load constant, matching "simulates a series of clients continuously
// sending requests").
type BTClientConfig struct {
	Addr     string
	Meta     *torrent.MetaInfo
	Clients  int
	Duration time.Duration
	Warmup   time.Duration
	Seed     int64
	// Pipeline is the number of outstanding block requests per client
	// (default 8).
	Pipeline int
	// StopAfter, when nonzero, ends the run once that many downloads
	// complete (tests use it; benchmarks run the full duration).
	StopAfter uint64
}

// BTResult aggregates a BitTorrent load run.
type BTResult struct {
	Completions uint64 // full-file downloads finished
	Pieces      uint64 // verified pieces downloaded
	Bytes       uint64
	Errors      uint64
	CompPerSec  float64 // completions/sec over the measured window
	Mbps        float64 // network throughput
	// PieceLatency is the request-to-verified time per piece.
	PieceLatency metrics.LatencySummary
}

func (r BTResult) String() string {
	return fmt.Sprintf("completions=%d pieces=%d errs=%d %.2f completions/s %.1f Mb/s piece{%s}",
		r.Completions, r.Pieces, r.Errors, r.CompPerSec, r.Mbps, r.PieceLatency)
}

// RunBTLoad drives a downloader swarm against a seeding peer.
func RunBTLoad(ctx context.Context, cfg BTClientConfig) BTResult {
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 8
	}
	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	lat := metrics.NewLatencyRecorder()
	tput := metrics.NewThroughput()
	var mu sync.Mutex
	var completions, pieces, errors_ uint64

	go func() {
		t := time.NewTimer(cfg.Warmup)
		defer t.Stop()
		select {
		case <-t.C:
			lat.Reset()
			tput.Reset()
			mu.Lock()
			completions, pieces = 0, 0
			mu.Unlock()
		case <-runCtx.Done():
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(cfg.Seed + int64(id)*30011))
			for runCtx.Err() == nil {
				got, err := btDownload(runCtx, cfg, rng, lat, tput)
				mu.Lock()
				pieces += got
				if err != nil {
					if runCtx.Err() == nil {
						errors_++
					}
				} else {
					completions++
					if cfg.StopAfter > 0 && completions >= cfg.StopAfter {
						cancel()
					}
				}
				mu.Unlock()
				if err != nil {
					select {
					case <-runCtx.Done():
					case <-time.After(10 * time.Millisecond):
					}
				}
			}
		}(c)
	}
	wg.Wait()

	res := BTResult{PieceLatency: lat.Summary()}
	mu.Lock()
	res.Completions, res.Pieces, res.Errors = completions, pieces, errors_
	mu.Unlock()
	_, res.Bytes = tput.Totals()
	ops, mbps := tput.Rates()
	_ = ops
	res.Mbps = mbps
	window := cfg.Duration - cfg.Warmup
	if window > 0 {
		res.CompPerSec = float64(res.Completions) / window.Seconds()
	}
	return res
}

// btDownload performs one complete download over one connection,
// returning the number of verified pieces it fetched.
func btDownload(ctx context.Context, cfg BTClientConfig, rng *mrand.Rand,
	lat *metrics.LatencyRecorder, tput *metrics.Throughput) (uint64, error) {

	store := torrent.NewLeecher(cfg.Meta)
	d := net.Dialer{Timeout: 2 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline.Add(time.Second))
	}

	var peerID [20]byte
	rand.Read(peerID[:])
	copy(peerID[:8], "-LGEN01-")
	if err := torrent.WriteHandshake(conn, cfg.Meta.InfoHash, peerID); err != nil {
		return 0, err
	}
	infoHash, _, err := torrent.ReadHandshake(conn)
	if err != nil {
		return 0, err
	}
	if infoHash != cfg.Meta.InfoHash {
		return 0, errors.New("loadgen: info hash mismatch")
	}
	// Expect the seeder's bitfield, send interested.
	if err := torrent.WriteMessage(conn, &torrent.Message{ID: torrent.MsgInterested}); err != nil {
		return 0, err
	}

	n := cfg.Meta.NumPieces()
	// Random piece order (the protocol's load-balancing behavior §4.3).
	order := rng.Perm(n)
	var got uint64

	type pendingPiece struct {
		start  time.Time
		blocks int
	}
	pending := map[int]*pendingPiece{}
	next := 0
	inflight := 0

	request := func(piece int) error {
		p := &pendingPiece{start: time.Now()}
		nb := store.NumBlocks(piece)
		for b := 0; b < nb; b++ {
			begin, length := store.BlockSpec(piece, b)
			req := &torrent.Message{ID: torrent.MsgRequest, Index: uint32(piece), Begin: uint32(begin), Length: uint32(length)}
			if err := torrent.WriteMessage(conn, req); err != nil {
				return err
			}
			p.blocks++
		}
		pending[piece] = p
		inflight += p.blocks
		return nil
	}

	for !store.Complete() {
		if ctx.Err() != nil {
			return got, ctx.Err()
		}
		// Keep the pipeline full.
		for next < n && inflight < cfg.Pipeline*4 {
			if err := request(order[next]); err != nil {
				return got, err
			}
			next++
		}
		m, err := torrent.ReadMessage(conn)
		if err != nil {
			return got, err
		}
		switch m.ID {
		case torrent.MsgPiece:
			piece := int(m.Index)
			done, err := store.WriteBlock(piece, int64(m.Begin), m.Payload)
			if err != nil {
				return got, err
			}
			inflight--
			tput.Add(0, uint64(len(m.Payload)))
			if done {
				got++
				tput.Add(1, 0)
				if p := pending[piece]; p != nil {
					lat.Record(time.Since(p.start))
					delete(pending, piece)
				}
			}
		default:
			// bitfield, unchoke, have, keep-alive: no client action.
		}
	}
	return got, nil
}
