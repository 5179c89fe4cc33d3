package bittorrent

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/netkit"
	"github.com/flux-lang/flux/internal/torrent"
)

// Peer is one connected remote peer. Wire writes are serialized by a
// per-peer mutex because several flows (piece responses, haves,
// keep-alives, choke updates) may target the same peer concurrently;
// per-peer protocol state is guarded by the Flux session-scoped
// "peerstate" constraint (§2.5.1), not by Go locking — each peer is a
// session. Choke/interest flags are atomics because the choke flow and
// broadcast flows read them outside the session constraint.
//
// Connection ownership: the pooled netkit.Conn has exactly one retirer.
// Once the pump goroutine starts it is the sole caller of conn.Close()
// (pool retirement happens on its read-loop exit); before the pump
// exists — handshake failures — the accept flow retires it. Everyone
// else interrupts the peer by closing the raw socket (interrupt), which
// unblocks the pump and lets it retire.
type Peer struct {
	conn *netkit.Conn  // pooled plane state; retired exactly once
	nc   net.Conn      // the socket: written under writeMu, closed under closeMu, both before retirement
	br   *bufio.Reader // pooled reader: handshake + pump only, dead after retirement
	id   [20]byte
	// session is the Flux session identifier for this peer.
	session uint64

	// Protocol state guarded by the peerstate(session) constraint.
	bitfield      torrent.Bitfield
	pendingBlocks atomic.Int32

	interested  atomic.Bool // they are interested in us
	choked      atomic.Bool // we choke them
	theyChokeUs atomic.Bool

	// ready is set once the handshake and bitfield are exchanged;
	// broadcast flows (keep-alives, haves, choke updates) skip peers
	// still mid-handshake so their writes cannot interleave into the
	// handshake byte stream.
	ready atomic.Bool

	// removed latches the peer's exit from the table so the DropPeer
	// and Unregister paths (a flow kill followed by the pump's terminal
	// report) cannot double-decrement piece availability.
	removed atomic.Bool

	// rateBase is the bytesIn watermark at the last choke tick; the
	// choke flow alone reads and writes it (tit-for-tat rates are
	// deltas between ticks).
	rateBase uint64

	// writeTimeout bounds each serialized wire write; a deadline pop
	// means a dead or zero-window peer stalling mid-frame, so the
	// connection is interrupted (the stream is unrecoverable) and
	// onWriteTimeout reports the shed to the plane's ledger.
	writeTimeout   time.Duration
	onWriteTimeout func()

	writeMu sync.Mutex
	closeMu sync.Mutex
	closed  atomic.Bool

	bytesOut atomic.Uint64
	bytesIn  atomic.Uint64
}

// send writes one message, serialized per peer. It targets the raw
// socket, never the pooled Conn, so late sends racing retirement fail
// with a write error instead of touching recycled state.
func (p *Peer) send(m *torrent.Message) error {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	if p.closed.Load() {
		return net.ErrClosed
	}
	if p.writeTimeout > 0 {
		_ = p.nc.SetWriteDeadline(time.Now().Add(p.writeTimeout))
	}
	if err := torrent.WriteMessage(p.nc, m); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if p.onWriteTimeout != nil {
				p.onWriteTimeout()
			}
			// A frame stalled partway cannot be resumed; tear the
			// connection down so no later send interleaves into it.
			p.interrupt()
		}
		return err
	}
	if m.ID == torrent.MsgPiece {
		p.bytesOut.Add(uint64(len(m.Payload)))
	}
	return nil
}

// interrupt closes the raw socket once, unblocking the pump (which then
// retires the pooled conn and reports the close through the inbox).
// closeMu orders it before retire's recycling: nc may be a view kept
// inside the pooled conn, so a close after retirement could reach the
// next connection to use that state.
func (p *Peer) interrupt() {
	p.closeMu.Lock()
	if !p.closed.Load() {
		p.closed.Store(true)
		p.nc.Close()
	}
	p.closeMu.Unlock()
}

// retire closes the socket and returns the pooled conn state — called
// by the conn's owner only: the pump on read-loop exit, or the accept
// flow on handshake failure. A send already past its closed check
// fails on the closed socket, and retire waits it out before
// recycling, so no late send writes through recycled state.
func (p *Peer) retire() {
	p.interrupt()
	p.writeMu.Lock()
	p.writeMu.Unlock()
	p.conn.Close()
}

// inboxItem is what the readiness substrate delivers to the Poll source:
// a frame body from a peer, or the peer's terminal error.
type inboxItem struct {
	peer *Peer
	body []byte // empty for a keep-alive
	err  error  // non-nil: the peer's connection is done
}

// pollToken is the Poll source's output: either one ready item or an
// empty poll (the select timeout fired with nothing ready — the paper's
// most frequently executed BitTorrent path ends in ERROR exactly here).
type pollToken struct {
	item     *inboxItem
	numPeers int // filled by GetClients
}

// wireMsg is the message record flowing through HandleMessage. The Poll
// source delivers it holding the frame body; the ReadMessage node parses
// it and fills msg and kind; the dispatch predicates test kind and the
// completion flag.
type wireMsg struct {
	body []byte
	msg  *torrent.Message
	// kind mirrors msg.Kind(); "closed" marks a dead peer needing
	// unregistration, "raw" an unparsed frame.
	kind string
	// completed is set by the Piece node when a block completes and
	// verifies a piece (tested by the piececomplete predicate).
	completed  bool
	pieceIndex uint32
}
