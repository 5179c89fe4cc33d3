package bittorrent

import (
	"net"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/telemetry"
	"github.com/flux-lang/flux/internal/torrent"
)

// readMessageDeadline reads one message with a read deadline.
func readMessageDeadline(conn net.Conn, d time.Duration) (*torrent.Message, error) {
	if err := conn.SetReadDeadline(time.Now().Add(d)); err != nil {
		return nil, err
	}
	defer conn.SetReadDeadline(time.Time{})
	return torrent.ReadMessage(conn)
}

// waitShed polls until the telemetry plane has counted a bittorrent
// shed under reason.
func waitShed(t *testing.T, tel *telemetry.Telemetry, reason string, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for _, sh := range tel.Snapshot().Sheds {
			if sh.Server == "bittorrent" && sh.Reason == reason && sh.Count > 0 {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no %q shed counted within %v (sheds=%d)", reason, d, tel.ShedTotal())
}

// TestHandshakeTimeoutShed connects a peer that writes half a handshake
// and stalls: the handshake deadline must pop, the connection must be
// dropped, and the shed must be counted on the plane's observer.
func TestHandshakeTimeoutShed(t *testing.T) {
	meta, data := testTorrent(t, 128*1024)
	tel := telemetry.New()
	_, addr, stop := startSeeder(t, Config{
		Meta: meta, Content: data,
		Engine: runtime.ThreadPool, PoolSize: 4,
		HandshakeTimeout: 200 * time.Millisecond,
		Telemetry:        tel,
	})
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// The length byte and part of the protocol string: a half-written
	// handshake.
	if _, err := nc.Write([]byte("\x13BitTorrent proto")); err != nil {
		t.Fatal(err)
	}

	waitShed(t, tel, "handshake-timeout", 5*time.Second)
}

// TestIdlePeerShed registers a peer that completes the handshake and
// then goes silent — a dead keep-alive peer. The idle deadline must reap
// it and count the shed.
func TestIdlePeerShed(t *testing.T) {
	meta, data := testTorrent(t, 128*1024)
	tel := telemetry.New()
	s, addr, stop := startSeeder(t, Config{
		Meta: meta, Content: data,
		Engine: runtime.ThreadPool, PoolSize: 4,
		IdleTimeout: 300 * time.Millisecond,
		Telemetry:   tel,
	})
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var peerID [20]byte
	copy(peerID[:], "-TEST01-idlepeer0000")
	if err := torrent.WriteHandshake(nc, meta.InfoHash, peerID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := torrent.ReadHandshake(nc); err != nil {
		t.Fatal(err)
	}
	// Fully registered (the server sends its bitfield), then silence.
	if _, err := readMessageDeadline(nc, 5*time.Second); err != nil {
		t.Fatalf("bitfield: %v", err)
	}

	waitShed(t, tel, "idle", 5*time.Second)
	if got := s.MsgCounts()["bitfield"]; got != 0 {
		t.Errorf("server counted %d bitfield messages from a silent peer", got)
	}
}
