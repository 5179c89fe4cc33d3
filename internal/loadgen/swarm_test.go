package loadgen

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/torrent"
)

func swarmTorrent(t *testing.T, size int) (*torrent.MetaInfo, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, size)
	rng.Read(data)
	meta, err := torrent.New("swarm.bin", "", data, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	return meta, data
}

// fakeSwarmConn builds an in-memory connection for selector tests; the
// peer's Close can shut it without touching a real socket.
func fakeSwarmConn(t *testing.T, p *SwarmPeer, remote torrent.Bitfield) *swarmConn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return &swarmConn{
		p: p, nc: a, remote: remote,
		notify:      make(chan struct{}, 1),
		outstanding: make(map[blockKey]time.Time),
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSwarmPeersExchangePieces proves leechers exchange verified pieces
// among themselves: peer B bootstraps ONLY to leecher A (never to the
// seed), so every piece B completes was relayed through A.
func TestSwarmPeersExchangePieces(t *testing.T) {
	meta, data := swarmTorrent(t, 256*1024) // 4 pieces
	stats := NewSwarmStats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	seed, err := NewSwarmPeer(SwarmPeerConfig{
		Meta: meta, Content: data, Stats: stats,
		ChokeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	seed.Start(ctx)

	a, err := NewSwarmPeer(SwarmPeerConfig{
		Meta: meta, Bootstrap: []string{seed.Addr()}, Stats: stats,
		ChokeInterval: 20 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Start(ctx)

	b, err := NewSwarmPeer(SwarmPeerConfig{
		Meta: meta, Bootstrap: []string{a.Addr()}, Stats: stats,
		ChokeInterval: 20 * time.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start(ctx)

	waitFor(t, 30*time.Second, "A to complete", a.Complete)
	waitFor(t, 30*time.Second, "B to complete via A", b.Complete)

	if got := stats.Completions.Load(); got < 2 {
		t.Errorf("completions = %d, want >= 2", got)
	}
	if got := stats.Pieces.Load(); got < 2*uint64(meta.NumPieces()) {
		t.Errorf("pieces = %d, want >= %d", got, 2*meta.NumPieces())
	}
	msgs := stats.Msgs()
	for _, kind := range []string{"bitfield", "interested", "unchoke", "request", "piece", "have"} {
		if msgs[kind] == 0 {
			t.Errorf("no %q messages observed: %v", kind, msgs)
		}
	}
	if stats.PieceLat.Summary().Count == 0 {
		t.Error("no piece latencies recorded")
	}
}

// TestSwarmPickPieceRarestFirst exercises the piece selector directly:
// rarest available piece first (unique minima here; ties are broken
// randomly), claimed pieces skipped until endgame.
func TestSwarmPickPieceRarestFirst(t *testing.T) {
	meta, _ := swarmTorrent(t, 256*1024) // 4 pieces
	p, err := NewSwarmPeer(SwarmPeerConfig{Meta: meta, Stats: NewSwarmStats()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	full := torrent.NewBitfield(meta.NumPieces())
	for i := 0; i < meta.NumPieces(); i++ {
		full.Set(i)
	}
	c := fakeSwarmConn(t, p, full)
	other := fakeSwarmConn(t, p, full.Clone())
	p.conns[c] = true
	p.conns[other] = true
	p.avail = []int{3, 0, 2, 1}

	piece, claimed, ok := p.pickPiece(c)
	if !ok || !claimed || piece != 1 {
		t.Fatalf("pickPiece = (%d, %v, %v), want rarest (1, true, true)", piece, claimed, ok)
	}
	p.claims[1] = other

	piece, claimed, ok = p.pickPiece(c)
	if !ok || !claimed || piece != 3 {
		t.Fatalf("pickPiece = (%d, %v, %v), want next-rarest (3, true, true)", piece, claimed, ok)
	}

	// All remaining pieces claimed elsewhere: endgame duplicates, no
	// fresh claim.
	for i := 0; i < meta.NumPieces(); i++ {
		p.claims[i] = other
	}
	piece, claimed, ok = p.pickPiece(c)
	if !ok || claimed {
		t.Fatalf("pickPiece = (%d, %v, %v), want endgame duplicate (_, false, true)", piece, claimed, ok)
	}

	// Claimed on c itself: not a duplicate candidate.
	for i := 0; i < meta.NumPieces(); i++ {
		p.claims[i] = c
	}
	if _, _, ok = p.pickPiece(c); ok {
		t.Fatal("pickPiece found work with every piece claimed on the same conn")
	}
}

// TestSwarmChokeClearsOutstanding checks the choke transition: a CHOKE
// from the remote voids outstanding requests and releases piece claims
// so other connections can pick them up.
func TestSwarmChokeClearsOutstanding(t *testing.T) {
	meta, _ := swarmTorrent(t, 256*1024)
	p, err := NewSwarmPeer(SwarmPeerConfig{Meta: meta, Stats: NewSwarmStats()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := fakeSwarmConn(t, p, torrent.NewBitfield(meta.NumPieces()))
	c.outstanding[blockKey{piece: 1, begin: 0}] = time.Now()
	p.conns[c] = true
	p.claims[1] = c
	p.claimAt[1] = time.Now()

	if err := p.handleMessage(c, &torrent.Message{ID: torrent.MsgChoke}); err != nil {
		t.Fatalf("choke: %v", err)
	}
	if !c.peerChoking {
		t.Error("peerChoking not set after choke")
	}
	if len(c.outstanding) != 0 {
		t.Errorf("outstanding not cleared: %v", c.outstanding)
	}
	if p.claims[1] == c {
		t.Error("claim not released on choke")
	}

	// UNCHOKE flips the state back.
	if err := p.handleMessage(c, &torrent.Message{ID: torrent.MsgUnchoke}); err != nil {
		t.Fatalf("unchoke: %v", err)
	}
	if c.peerChoking {
		t.Error("peerChoking still set after unchoke")
	}
}

// TestSwarmHaveOutOfRange: a have for a piece index past the torrent is
// a protocol error, not a panic. 1<<31 is the index that becomes
// negative when converted to a 32-bit int before the range check.
func TestSwarmHaveOutOfRange(t *testing.T) {
	meta, _ := swarmTorrent(t, 256*1024)
	p, err := NewSwarmPeer(SwarmPeerConfig{Meta: meta, Stats: NewSwarmStats()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := fakeSwarmConn(t, p, torrent.NewBitfield(meta.NumPieces()))
	p.conns[c] = true

	for _, idx := range []uint32{uint32(meta.NumPieces()), 1 << 31, 1<<32 - 1} {
		if err := p.handleMessage(c, &torrent.Message{ID: torrent.MsgHave, Index: idx}); err == nil {
			t.Errorf("have(%#x) accepted for a %d-piece torrent", idx, meta.NumPieces())
		}
	}
	if c.remote.Count() != 0 {
		t.Errorf("out-of-range haves set %d bits of the remote's bitfield", c.remote.Count())
	}
}

// TestSwarmRejectsCorruptBlocks runs a malicious seeder that serves
// garbage: the peer must reject every piece (hash mismatch), count
// errors, and never complete.
func TestSwarmRejectsCorruptBlocks(t *testing.T) {
	meta, _ := swarmTorrent(t, 128*1024) // 2 pieces
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serveCorrupt(nc, meta)
		}
	}()

	stats := NewSwarmStats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := NewSwarmPeer(SwarmPeerConfig{
		Meta: meta, Bootstrap: []string{ln.Addr().String()}, Stats: stats,
		ChokeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Start(ctx)

	waitFor(t, 20*time.Second, "a corrupt block to be rejected", func() bool {
		return stats.Errors.Load() > 0
	})
	if p.Complete() {
		t.Error("peer completed from a corrupt seeder")
	}
	if stats.Pieces.Load() != 0 {
		t.Errorf("verified pieces = %d from a corrupt seeder, want 0", stats.Pieces.Load())
	}
}

// serveCorrupt handshakes, claims every piece, unchokes, and answers
// requests with garbage bytes.
func serveCorrupt(nc net.Conn, meta *torrent.MetaInfo) {
	defer nc.Close()
	var peerID [20]byte
	copy(peerID[:], "-EVIL01-corruptseed!")
	if err := torrent.WriteHandshake(nc, meta.InfoHash, peerID); err != nil {
		return
	}
	if _, _, err := torrent.ReadHandshake(nc); err != nil {
		return
	}
	full := torrent.NewBitfield(meta.NumPieces())
	for i := 0; i < meta.NumPieces(); i++ {
		full.Set(i)
	}
	if err := torrent.WriteMessage(nc, &torrent.Message{ID: torrent.MsgBitfield, Payload: full}); err != nil {
		return
	}
	if err := torrent.WriteMessage(nc, &torrent.Message{ID: torrent.MsgUnchoke}); err != nil {
		return
	}
	for {
		m, err := torrent.ReadMessage(nc)
		if err != nil {
			return
		}
		if m.ID != torrent.MsgRequest {
			continue
		}
		garbage := bytes.Repeat([]byte{0xAB}, int(m.Length)) // not the content
		if err := torrent.WriteMessage(nc, &torrent.Message{ID: torrent.MsgPiece, Index: m.Index, Begin: m.Begin, Payload: garbage}); err != nil {
			return
		}
	}
}
