package bittorrent

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/servers/baseline/ctorrent"
	"github.com/flux-lang/flux/internal/torrent"
)

// scriptedPeer is a leecher driven one message at a time over a real
// socket. It keeps every byte it reads, so a test can compare what two
// seeders sent, frame by frame.
type scriptedPeer struct {
	t      *testing.T
	nc     net.Conn
	in     io.Reader // nc, teed into got
	got    bytes.Buffer
	peerID [20]byte // the seeder's, from its handshake
}

// frame is one received frame: its kind and the bytes it arrived as.
type frame struct {
	kind string
	raw  []byte
}

// dialScripted connects to a seeder and exchanges handshakes.
func dialScripted(t *testing.T, addr string, meta *torrent.MetaInfo) *scriptedPeer {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	p := &scriptedPeer{t: t, nc: nc}
	p.in = io.TeeReader(nc, &p.got)
	var id [20]byte
	copy(id[:], "-SCRIPT-leecher00000")
	if err := torrent.WriteHandshake(nc, meta.InfoHash, id); err != nil {
		t.Fatal(err)
	}
	infoHash, peerID, err := torrent.ReadHandshake(p.in)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if infoHash != meta.InfoHash {
		t.Fatal("handshake carries another torrent's info hash")
	}
	p.peerID = peerID
	return p
}

func (p *scriptedPeer) send(m *torrent.Message) {
	p.t.Helper()
	if err := torrent.WriteMessage(p.nc, m); err != nil {
		p.t.Fatalf("send %s: %v", m.Kind(), err)
	}
}

// recv reads one message.
func (p *scriptedPeer) recv() (*torrent.Message, frame, error) {
	start := p.got.Len()
	m, err := torrent.ReadMessage(p.in)
	if err != nil {
		return nil, frame{}, err
	}
	return m, frame{m.Kind(), bytes.Clone(p.got.Bytes()[start:])}, nil
}

// converse runs the scripted leecher conversation against the seeder at
// addr and returns every frame it received, the handshake first with
// the seeder's peer ID zeroed: interested, then one request at a time
// for blocks at the start, the middle and the short end of the torrent,
// then a quiet wait that catches anything sent unasked.
func converse(t *testing.T, addr string, meta *torrent.MetaInfo, data []byte) []frame {
	t.Helper()
	p := dialScripted(t, addr, meta)
	hs := bytes.Replace(p.got.Bytes(), p.peerID[:], make([]byte, 20), 1)
	frames := []frame{{"handshake", hs}}
	next := func() *torrent.Message {
		t.Helper()
		m, f, err := p.recv()
		if err != nil {
			t.Fatalf("after %d frames: %v", len(frames), err)
		}
		frames = append(frames, f)
		return m
	}
	next() // bitfield
	p.send(&torrent.Message{ID: torrent.MsgInterested})
	next() // unchoke

	store := torrent.NewLeecher(meta)
	last := meta.NumPieces() - 1
	for _, blk := range [][2]int{{0, 0}, {1, 2}, {last, 0}, {last, store.NumBlocks(last) - 1}} {
		begin, length := store.BlockSpec(blk[0], blk[1])
		p.send(&torrent.Message{ID: torrent.MsgRequest, Index: uint32(blk[0]), Begin: uint32(begin), Length: uint32(length)})
		m := next()
		off := int64(blk[0])*meta.PieceLength + begin
		if m.ID != torrent.MsgPiece || !bytes.Equal(m.Payload, data[off:off+length]) {
			t.Fatalf("request for piece %d block %d answered with %s, not its block", blk[0], blk[1], m.Kind())
		}
	}

	_ = p.nc.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	for {
		_, f, err := p.recv()
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return frames
		}
		if err != nil {
			t.Fatalf("quiet wait: %v", err)
		}
		frames = append(frames, f)
	}
}

// sendBadHave opens a connection, sends a have past the last piece after
// the bitfield, and returns the error that ends its next read: io.EOF
// when the seeder drops the connection.
func sendBadHave(t *testing.T, addr string, meta *torrent.MetaInfo) error {
	t.Helper()
	p := dialScripted(t, addr, meta)
	if m, _, err := p.recv(); err != nil || m.ID != torrent.MsgBitfield {
		t.Fatalf("first message: %v, %v; want a bitfield", m, err)
	}
	p.send(&torrent.Message{ID: torrent.MsgHave, Index: 1 << 31})
	_ = p.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, _, err := p.recv()
	if err == nil {
		t.Fatalf("after the bad have: got %s, want the connection ended", m.Kind())
	}
	return err
}

// TestWireParityWithCtorrent: the Flux seeder and the ctorrent baseline
// answer one scripted leecher conversation with byte-identical frames,
// apart from the peer ID in the handshake, and both end a connection
// that sends a have past the last piece. The two make the same protocol
// choices (interest earns an unchoke, nothing is sent unasked), so no
// difference is allowed for.
func TestWireParityWithCtorrent(t *testing.T) {
	meta, data := testTorrent(t, 2*64*1024+20000) // last piece: a full block and a short one

	ct, err := ctorrent.New(ctorrent.Config{Meta: meta, Content: data})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = ct.Run(ctx) }()
	// ctorrent's Run waits for its peers, so it stops after the scripted
	// peer's connection closes: cleanups run last-registered first.
	t.Cleanup(func() { cancel(); <-done })
	want := converse(t, ct.Addr(), meta, data)
	if len(want) != 7 {
		t.Fatalf("ctorrent sent %d frames, want 7 (handshake, bitfield, unchoke, 4 pieces)", len(want))
	}
	if err := sendBadHave(t, ct.Addr(), meta); err != io.EOF {
		t.Fatalf("ctorrent after a bad have: %v, want EOF", err)
	}

	for _, kind := range []runtime.EngineKind{runtime.ThreadPerFlow, runtime.ThreadPool, runtime.EventDriven, runtime.WorkStealing} {
		t.Run(kind.String(), func(t *testing.T) {
			_, addr, stop := startSeeder(t, Config{Meta: meta, Content: data, Engine: kind, PoolSize: 4})
			defer stop()
			got := converse(t, addr, meta, data)
			for i := 0; i < max(len(got), len(want)); i++ {
				switch {
				case i >= len(got):
					t.Errorf("frame %d: ctorrent sent %s, the Flux seeder nothing", i, want[i].kind)
				case i >= len(want):
					t.Errorf("frame %d: the Flux seeder sent %s, ctorrent nothing", i, got[i].kind)
				case !bytes.Equal(got[i].raw, want[i].raw):
					t.Errorf("frame %d differs: Flux %s (%d bytes), ctorrent %s (%d bytes)",
						i, got[i].kind, len(got[i].raw), want[i].kind, len(want[i].raw))
				}
			}
			if err := sendBadHave(t, addr, meta); err != io.EOF {
				t.Errorf("after a bad have: %v, want EOF as from ctorrent", err)
			}
		})
	}
}

// TestHaveOutOfRange: a have for a piece past the torrent errors its
// message flow, whose handler drops the peer that sent it, and the
// seeder goes on serving a fresh connection. The index is 1<<31, which a
// 32-bit int makes negative: converted before the range check, it passed
// the check and crashed the seeder.
func TestHaveOutOfRange(t *testing.T) {
	meta, data := testTorrent(t, 128*1024)
	s, addr, stop := startSeeder(t, Config{Meta: meta, Content: data, Engine: runtime.ThreadPool, PoolSize: 4})
	defer stop()

	if err := sendBadHave(t, addr, meta); err != io.EOF {
		t.Fatalf("after the bad have: %v, want EOF", err)
	}
	p := dialScripted(t, addr, meta)
	if m, _, err := p.recv(); err != nil || m.ID != torrent.MsgBitfield {
		t.Fatalf("first message: %v, %v; want a bitfield", m, err)
	}
	p.send(&torrent.Message{ID: torrent.MsgInterested})
	if m, _, err := p.recv(); err != nil || m.ID != torrent.MsgUnchoke {
		t.Fatalf("fresh connection: %v, %v; want an unchoke", m, err)
	}
	p.send(&torrent.Message{ID: torrent.MsgRequest, Index: 1, Begin: 0, Length: torrent.BlockSize})
	if m, _, err := p.recv(); err != nil || m.ID != torrent.MsgPiece || !bytes.Equal(m.Payload, data[meta.PieceLength:][:torrent.BlockSize]) {
		t.Fatalf("fresh connection: %v, %v; want piece 1's first block", m, err)
	}
	if got := s.MsgCounts()["have"]; got != 1 {
		t.Errorf("seeder counted %d haves, want the bad one", got)
	}
}
