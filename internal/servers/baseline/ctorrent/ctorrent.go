// Package ctorrent is the hand-written comparison BitTorrent seeder
// standing in for CTorrent (the C implementation the paper benchmarks
// against in §4.3). Each peer connection is serviced by a dedicated
// goroutine running a tight read-handle-respond loop over the shared
// piece store — the conventional design, with the paper's benchmark
// modifications (every peer unchoked, no unchoke limit).
package ctorrent

import (
	"context"
	"crypto/rand"
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"github.com/flux-lang/flux/internal/servers/baseline/lifecycle"
	"github.com/flux-lang/flux/internal/torrent"
)

// Config tunes the baseline seeder.
type Config struct {
	Addr    string
	Meta    *torrent.MetaInfo
	Content []byte
}

// Server is the baseline seeder.
type Server struct {
	cfg    Config
	ln     net.Listener
	store  *torrent.Store
	peerID [20]byte

	bytesOut atomic.Uint64
	served   atomic.Uint64

	lifecycle.Runner
}

// New opens the listener over a complete piece store.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Meta == nil || cfg.Content == nil {
		return nil, errors.New("ctorrent: Meta and Content are required")
	}
	store, err := torrent.NewSeeder(cfg.Meta, cfg.Content)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, ln: ln, store: store}
	if _, err := rand.Read(s.peerID[:]); err != nil {
		ln.Close()
		return nil, err
	}
	copy(s.peerID[:8], "-CTLIKE-")
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// BytesServed totals piece payload bytes sent.
func (s *Server) BytesServed() uint64 { return s.bytesOut.Load() }

// BlocksServed counts piece messages sent.
func (s *Server) BlocksServed() uint64 { return s.served.Load() }

// Run accepts and serves peers until the context is cancelled.
func (s *Server) Run(ctx context.Context) error {
	go func() {
		<-ctx.Done()
		s.ln.Close()
	}()
	var wg sync.WaitGroup
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			wg.Wait()
			return ctx.Err()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			s.servePeer(conn)
		}()
	}
}

func (s *Server) servePeer(conn net.Conn) {
	// Handshake.
	if err := torrent.WriteHandshake(conn, s.cfg.Meta.InfoHash, s.peerID); err != nil {
		return
	}
	infoHash, _, err := torrent.ReadHandshake(conn)
	if err != nil || infoHash != s.cfg.Meta.InfoHash {
		return
	}
	// Bitfield.
	if err := torrent.WriteMessage(conn, &torrent.Message{ID: torrent.MsgBitfield, Payload: s.store.Bitfield()}); err != nil {
		return
	}
	// Serve requests until the peer leaves or sends a malformed frame.
	for {
		m, err := torrent.ReadMessage(conn)
		if err != nil {
			return
		}
		switch m.ID {
		case torrent.MsgInterested: // -> unchoke (benchmark modification)
			if err := torrent.WriteMessage(conn, &torrent.Message{ID: torrent.MsgUnchoke}); err != nil {
				return
			}
		case torrent.MsgRequest:
			if m.Length > torrent.BlockSize {
				return
			}
			blk, err := s.store.ReadBlock(int(m.Index), int64(m.Begin), int64(m.Length))
			if err != nil {
				return
			}
			if err := torrent.WriteMessage(conn, &torrent.Message{ID: torrent.MsgPiece, Index: m.Index, Begin: m.Begin, Payload: blk}); err != nil {
				return
			}
			s.bytesOut.Add(uint64(len(blk)))
			s.served.Add(1)
		case torrent.MsgHave:
			// A pure seeder has no use for a have, but one past the last
			// piece is a protocol violation that ends the connection.
			if m.Index >= uint32(s.cfg.Meta.NumPieces()) {
				return
			}
		case torrent.MsgBitfield:
			if len(m.Payload) != len(s.store.Bitfield()) {
				return
			}
		default:
			// choke/unchoke/cancel/keep-alive: ignored by a pure seeder.
		}
	}
}
