package bittorrent

import (
	"bytes"
	"context"

	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/telemetry"
	"github.com/flux-lang/flux/internal/torrent"
)

func testTorrent(t *testing.T, size int) (*torrent.MetaInfo, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, size)
	rng.Read(data)
	meta, err := torrent.New("bench.bin", "", data, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	return meta, data
}

func startSeeder(t *testing.T, cfg Config) (*Server, string, func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Run(ctx)
	}()
	stop := func() {
		cancel()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Error("peer did not stop")
		}
	}
	return s, s.Addr(), stop
}

func TestSingleClientDownloads(t *testing.T) {
	meta, data := testTorrent(t, 512*1024) // 8 pieces
	_, addr, stop := startSeeder(t, Config{
		Meta: meta, Content: data,
		Engine: runtime.ThreadPool, PoolSize: 8,
	})
	defer stop()

	res := loadgen.RunBTLoad(context.Background(), loadgen.BTClientConfig{
		Addr: addr, Meta: meta,
		Clients:   1,
		Duration:  10 * time.Second,
		Seed:      1,
		StopAfter: 1,
	})
	if res.Completions == 0 {
		t.Fatalf("no completed download: %+v", res)
	}
	if res.Pieces < uint64(meta.NumPieces()) {
		t.Errorf("pieces = %d, want >= %d", res.Pieces, meta.NumPieces())
	}
}

func TestMultipleConcurrentClients(t *testing.T) {
	meta, data := testTorrent(t, 256*1024)
	s, addr, stop := startSeeder(t, Config{
		Meta: meta, Content: data,
		Engine: runtime.ThreadPool, PoolSize: 16,
	})
	defer stop()

	res := loadgen.RunBTLoad(context.Background(), loadgen.BTClientConfig{
		Addr: addr, Meta: meta,
		Clients:   4,
		Duration:  15 * time.Second,
		Seed:      2,
		StopAfter: 4,
	})
	if res.Completions < 4 {
		t.Fatalf("completions = %d, want >= 4: %+v", res.Completions, res)
	}
	if s.BytesServed() == 0 {
		t.Error("seeder reports zero bytes served")
	}
}

func TestAllEnginesSeed(t *testing.T) {
	meta, data := testTorrent(t, 128*1024)
	for _, kind := range []runtime.EngineKind{runtime.ThreadPerFlow, runtime.ThreadPool, runtime.EventDriven} {
		t.Run(kind.String(), func(t *testing.T) {
			_, addr, stop := startSeeder(t, Config{
				Meta: meta, Content: data,
				Engine: kind, PoolSize: 8,
			})
			defer stop()
			res := loadgen.RunBTLoad(context.Background(), loadgen.BTClientConfig{
				Addr: addr, Meta: meta,
				Clients:   2,
				Duration:  10 * time.Second,
				Seed:      3,
				StopAfter: 1,
			})
			if res.Completions == 0 {
				t.Fatalf("no completions: %+v", res)
			}
		})
	}
}

func TestDownloadedContentVerifies(t *testing.T) {
	meta, data := testTorrent(t, 200_000) // odd size: short last piece
	_, addr, stop := startSeeder(t, Config{
		Meta: meta, Content: data,
		Engine: runtime.ThreadPool, PoolSize: 8,
	})
	defer stop()

	// Use the Flux peer itself as the leecher: a second peer connects
	// out and downloads (exercising the Piece/CompletePiece flow).
	leecher, err := New(Config{Meta: meta, Engine: runtime.ThreadPool, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leechDone := make(chan struct{})
	go func() {
		defer close(leechDone)
		_ = leecher.Run(ctx)
	}()
	if err := leecher.ConnectTo(addr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for !leecher.Store().Complete() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !leecher.Store().Complete() {
		t.Fatal("leecher did not complete")
	}
	if !bytes.Equal(leecher.Store().Bytes(), data) {
		t.Error("downloaded content differs")
	}
	cancel()
	<-leechDone
}

func TestEmptyPollErrorPathDominatesWhenIdle(t *testing.T) {
	meta, data := testTorrent(t, 64*1024)
	tel := telemetry.New()
	s, _, stop := startSeeder(t, Config{
		Meta: meta, Content: data,
		Engine: runtime.ThreadPool, PoolSize: 4,
		PollInterval: 200 * time.Microsecond,
		Telemetry:    tel,
	})
	time.Sleep(300 * time.Millisecond) // idle server: only empty polls
	stop()

	g := s.Program().Graphs["Poll"]
	rows := tel.PathProfile(g, telemetry.ByCount, 1).Paths
	if len(rows) == 0 {
		t.Fatal("no poll paths recorded")
	}
	if !strings.Contains(rows[0].Label, "ERROR") {
		t.Errorf("most frequent idle path should end in ERROR, got %q", rows[0].Label)
	}
	if !strings.Contains(rows[0].Label, "CheckSockets") {
		t.Errorf("idle path should pass CheckSockets: %q", rows[0].Label)
	}
}

func TestTrackerAnnounceAndDiscovery(t *testing.T) {
	meta, data := testTorrent(t, 64*1024)
	tracker, err := NewTracker("")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trackerDone := make(chan struct{})
	go func() {
		defer close(trackerDone)
		_ = tracker.Serve(ctx)
	}()

	// Seeder announces itself.
	_, _, stopSeeder := startSeeder(t, Config{
		Meta: meta, Content: data,
		AnnounceURL:     tracker.AnnounceURL(),
		TrackerInterval: 50 * time.Millisecond,
		Engine:          runtime.ThreadPool, PoolSize: 8,
	})
	defer stopSeeder()

	deadline := time.Now().Add(5 * time.Second)
	for tracker.SwarmSize(meta.InfoHash) == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if tracker.SwarmSize(meta.InfoHash) == 0 {
		t.Fatal("seeder never announced")
	}

	// Leecher discovers the seeder via the tracker and completes.
	leecher, err := New(Config{
		Meta:            meta,
		AnnounceURL:     tracker.AnnounceURL(),
		TrackerInterval: 50 * time.Millisecond,
		Engine:          runtime.ThreadPool, PoolSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	leechDone := make(chan struct{})
	go func() {
		defer close(leechDone)
		_ = leecher.Run(ctx)
	}()
	deadline = time.Now().Add(20 * time.Second)
	for !leecher.Store().Complete() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !leecher.Store().Complete() {
		t.Fatal("leecher did not complete via tracker discovery")
	}
	cancel()
	<-leechDone
	<-trackerDone
}

// TestCorruptPieceRejectedAndRetried injects a corrupt block into a Flux
// leecher from a fake seeder: the piece must fail verification (taking
// the error path), become requestable again, and the download must still
// complete when correct data follows.
func TestCorruptPieceRejectedAndRetried(t *testing.T) {
	meta, data := testTorrent(t, 64*1024) // single piece
	leecher, err := New(Config{Meta: meta, Engine: runtime.ThreadPool, PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = leecher.Run(ctx) }()
	defer func() { cancel(); <-done }()

	// Fake seeder: accept the leecher's outbound connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := leecher.ConnectTo(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(15 * time.Second))

	// Handshake both ways, then announce a full bitfield.
	if _, _, err := torrent.ReadHandshake(conn); err != nil {
		t.Fatal(err)
	}
	var fakeID [20]byte
	copy(fakeID[:], "-FAKESEEDER-00000000")
	if err := torrent.WriteHandshake(conn, meta.InfoHash, fakeID); err != nil {
		t.Fatal(err)
	}
	full := torrent.NewBitfield(meta.NumPieces())
	for i := 0; i < meta.NumPieces(); i++ {
		full.Set(i)
	}
	if err := torrent.WriteMessage(conn, &torrent.Message{ID: torrent.MsgBitfield, Payload: full}); err != nil {
		t.Fatal(err)
	}

	// Serve requests: corrupt the first block once, then serve honestly.
	// When the leecher goes quiet after the corrupt piece fails
	// verification (the flow that would have refilled its pipeline died
	// on the error path), an unchoke re-opens the request window.
	corrupted := false
	deadline := time.Now().Add(15 * time.Second)
	for !leecher.Store().Complete() && time.Now().Before(deadline) {
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		m, err := torrent.ReadMessage(conn)
		if err != nil {
			if ne, ok := err.(interface{ Timeout() bool }); ok && ne.Timeout() {
				if !leecher.Store().Complete() {
					_ = torrent.WriteMessage(conn, &torrent.Message{ID: torrent.MsgUnchoke})
				}
				continue
			}
			t.Fatalf("fake seeder read: %v", err)
		}
		if m.ID != torrent.MsgRequest {
			continue
		}
		off := int64(m.Index)*meta.PieceLength + int64(m.Begin)
		blk := append([]byte(nil), data[off:off+int64(m.Length)]...)
		if !corrupted {
			blk[0] ^= 0xFF
			corrupted = true
		}
		if err := torrent.WriteMessage(conn, &torrent.Message{ID: torrent.MsgPiece, Index: m.Index, Begin: m.Begin, Payload: blk}); err != nil {
			t.Fatalf("fake seeder write: %v", err)
		}
	}
	if !leecher.Store().Complete() {
		t.Fatalf("download did not recover from corrupt piece (errored=%d)",
			leecher.Stats().Snapshot().Errored)
	}
	if !bytes.Equal(leecher.Store().Bytes(), data) {
		t.Error("content mismatch after recovery")
	}
	if leecher.Stats().Snapshot().Errored == 0 {
		t.Error("corrupt piece never took the error path")
	}
}
