package bittorrent

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"github.com/flux-lang/flux/internal/bencode"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/torrent"
)

// errEmptyPoll terminates the message flow when the select timeout fired
// with nothing ready — the paper's most frequently executed BitTorrent
// path ends in ERROR exactly here (§5.2).
var errEmptyPoll = errors.New("bittorrent: no outstanding requests")

// --- message flow ------------------------------------------------------------

// getClients snapshots the peer count under the shared peers constraint
// (reader mode: many message flows may read the table concurrently).
func (s *Server) getClients(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	tok := in[0].(*pollToken)
	tok.numPeers = len(s.peers)
	return in, nil
}

// selectSockets is the select step; the readiness wait happened in the
// Poll source, so this node only validates the token.
func (s *Server) selectSockets(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	return in, nil
}

// checkSockets converts the token into the message record, erroring on
// an empty poll.
func (s *Server) checkSockets(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	tok := in[0].(*pollToken)
	if tok.item == nil {
		return nil, errEmptyPoll
	}
	item := tok.item
	if item.err != nil {
		// Peer connection is done: flow on to Unregister via the
		// "closed" dispatch case.
		return runtime.Record{item.peer, true, &wireMsg{kind: "closed"}}, nil
	}
	return runtime.Record{item.peer, false, &wireMsg{body: item.body, kind: "raw"}}, nil
}

// readMessage parses the frame body into a typed message and counts it
// on the per-message-type stream; malformed frames error to DropPeer.
func (s *Server) readMessage(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	m := in[2].(*wireMsg)
	if m.kind == "closed" {
		s.closedMsgs.Add(1)
		return in, nil
	}
	msg, err := torrent.ParseMessageBody(m.body)
	if err != nil {
		return nil, err
	}
	m.msg, m.kind = msg, msg.Kind()
	s.msgs.Add(msg)
	return in, nil
}

// messageDone finishes the message flow (bookkeeping hook).
func (s *Server) messageDone(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	return nil, nil
}

// removePeer takes the peer out of the table and releases its piece
// claims and availability counts — called under {peers, store} from the
// DropPeer and Unregister nodes; the removed latch makes the two paths
// (a flow kill followed by the pump's terminal report) idempotent.
func (s *Server) removePeer(p *Peer) {
	if !p.removed.CompareAndSwap(false, true) {
		return
	}
	delete(s.peers, p)
	for i := range s.avail {
		if p.bitfield.Has(i) {
			s.avail[i]--
		}
	}
	for piece, owner := range s.requestedBy {
		if owner == p {
			delete(s.requestedBy, piece)
			delete(s.requestedAt, piece)
		}
	}
	if s.optimistic == p {
		s.optimistic = nil
	}
}

// dropPeer is the error handler for ReadMessage: the offending peer is
// disconnected and unregistered. The pump owns the conn, so the flow
// only interrupts the socket; the pump's terminal report then reaches
// Unregister, whose removal is a no-op after ours.
func (s *Server) dropPeer(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	p := in[0].(*Peer)
	p.interrupt()
	s.removePeer(p)
	return nil, nil
}

// unregister removes a dead peer (the "closed" dispatch case) under the
// peers constraint. The pump already retired the conn.
func (s *Server) unregister(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	p := in[0].(*Peer)
	p.interrupt()
	s.removePeer(p)
	return in, nil
}

// --- per-message handlers (peer state under the session constraint) ---------

func (s *Server) onBitfield(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	p := in[0].(*Peer)
	m := in[2].(*wireMsg)
	bf := torrent.Bitfield(m.msg.Payload)
	if len(bf) != len(torrent.NewBitfield(s.cfg.Meta.NumPieces())) {
		return nil, fmt.Errorf("bittorrent: bitfield of %d bytes", len(bf))
	}
	// Swap availability counts from the old bitfield to the new one
	// (holds {peerstate, store}; avail rides the store constraint).
	for i := range s.avail {
		if p.bitfield.Has(i) {
			s.avail[i]--
		}
	}
	p.bitfield = bf.Clone()
	for i := range s.avail {
		if p.bitfield.Has(i) {
			s.avail[i]++
		}
	}
	// A leecher signals interest when the peer has pieces we miss, and —
	// unless choked — begins requesting immediately.
	if !s.store.Complete() {
		_ = p.send(&torrent.Message{ID: torrent.MsgInterested})
		if !p.theyChokeUs.Load() {
			s.requestMoreBlocks(p)
		}
	}
	return in, nil
}

func (s *Server) onHave(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	p := in[0].(*Peer)
	m := in[2].(*wireMsg)
	// Compare before converting: on a 32-bit platform int(1<<31) is
	// negative and would pass a range check on the int.
	if m.msg.Index >= uint32(s.cfg.Meta.NumPieces()) {
		return nil, fmt.Errorf("bittorrent: have for piece %d of %d", m.msg.Index, s.cfg.Meta.NumPieces())
	}
	idx := int(m.msg.Index)
	if !p.bitfield.Has(idx) {
		p.bitfield.Set(idx)
		s.avail[idx]++
	}
	return in, nil
}

func (s *Server) onInterested(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	p := in[0].(*Peer)
	p.interested.Store(true)
	if s.cfg.MaxUnchoked > 0 {
		// Real choking: the choke flow decides who is unchoked; interest
		// alone earns nothing.
		return in, nil
	}
	// Benchmark modification (§4.3): every peer is unchoked.
	p.choked.Store(false)
	_ = p.send(&torrent.Message{ID: torrent.MsgUnchoke})
	return in, nil
}

func (s *Server) onUninterested(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	in[0].(*Peer).interested.Store(false)
	return in, nil
}

func (s *Server) onChoke(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	in[0].(*Peer).theyChokeUs.Store(true)
	return in, nil
}

func (s *Server) onUnchoke(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	p := in[0].(*Peer)
	p.theyChokeUs.Store(false)
	// An unchoke opens the request window: start (or restart) the leech
	// pipeline.
	if !s.store.Complete() {
		s.requestMoreBlocks(p)
	}
	return in, nil
}

// onRequest serves a block (the paper's file-transfer path: the most
// expensive path in the profile of §5.2).
func (s *Server) onRequest(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	p := in[0].(*Peer)
	m := in[2].(*wireMsg)
	req := m.msg
	if p.choked.Load() {
		return in, nil // choked peers get nothing
	}
	if req.Length > torrent.BlockSize {
		return nil, fmt.Errorf("bittorrent: request of %d bytes", req.Length)
	}
	blk, err := s.store.ReadBlock(int(req.Index), int64(req.Begin), int64(req.Length))
	if err != nil {
		return nil, err
	}
	if err := p.send(&torrent.Message{ID: torrent.MsgPiece, Index: req.Index, Begin: req.Begin, Payload: blk}); err != nil {
		return nil, err
	}
	s.totalOut.Add(uint64(len(blk)))
	return in, nil
}

func (s *Server) onCancel(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	// Requests are served synchronously, so there is no queue to cancel
	// from; the node exists to complete the protocol (Figure 7).
	return in, nil
}

// onPiece stores a received block (leecher side) and flags completion
// for the piececomplete dispatch. Verified pieces feed the
// piece-latency stream (claim to verification).
func (s *Server) onPiece(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	p := in[0].(*Peer)
	m := in[2].(*wireMsg)
	msg := m.msg
	done, err := s.store.WriteBlock(int(msg.Index), int64(msg.Begin), msg.Payload)
	if err != nil {
		// A failed (e.g. hash-corrupt) piece must become requestable
		// again or the download would stall; the store has already
		// discarded its blocks.
		delete(s.requestedBy, int(msg.Index))
		delete(s.requestedAt, int(msg.Index))
		return nil, err
	}
	if p.pendingBlocks.Load() > 0 {
		p.pendingBlocks.Add(-1)
	}
	m.completed = done
	m.pieceIndex = msg.Index
	if done {
		if t, ok := s.requestedAt[int(msg.Index)]; ok {
			s.pieceLat.Record(time.Since(t))
			delete(s.requestedAt, int(msg.Index))
		}
	} else {
		s.requestMoreBlocks(p)
	}
	return in, nil
}

// requestMoreBlocks keeps the request pipeline full while leeching,
// claiming pieces rarest-first.
func (s *Server) requestMoreBlocks(p *Peer) {
	const pipeline = 8
	for p.pendingBlocks.Load() < pipeline {
		piece, ok := s.pickMissingPiece(p)
		if !ok {
			return
		}
		n := s.store.NumBlocks(piece)
		for b := 0; b < n; b++ {
			begin, length := s.store.BlockSpec(piece, b)
			if err := p.send(&torrent.Message{ID: torrent.MsgRequest, Index: uint32(piece), Begin: uint32(begin), Length: uint32(length)}); err != nil {
				return
			}
			p.pendingBlocks.Add(1)
		}
	}
}

// pickMissingPiece claims the rarest piece the peer has and we lack:
// lowest availability over connected peers' observed bitfields/haves,
// ties broken toward the lowest index. Runs under the store constraint.
func (s *Server) pickMissingPiece(p *Peer) (int, bool) {
	missing := s.store.Bitfield().Missing(s.cfg.Meta.NumPieces())
	best := -1
	bestAvail := int(^uint(0) >> 1)
	for _, i := range missing {
		if p.bitfield.Has(i) && s.requestedBy[i] == nil && s.avail[i] < bestAvail {
			best, bestAvail = i, s.avail[i]
		}
	}
	if best < 0 {
		return 0, false
	}
	s.requestedBy[best] = p
	s.requestedAt[best] = time.Now()
	return best, true
}

// completePiece broadcasts HAVE for a freshly verified piece to every
// ready peer (reader hold on the peers table).
func (s *Server) completePiece(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	m := in[2].(*wireMsg)
	for p := range s.peers {
		if p.ready.Load() {
			_ = p.send(&torrent.Message{ID: torrent.MsgHave, Index: m.pieceIndex})
		}
	}
	// Keep the leech pipeline moving.
	if p := in[0].(*Peer); !s.store.Complete() {
		s.requestMoreBlocks(p)
	}
	return in, nil
}

// --- choke flow ---------------------------------------------------------------

// chokeCand is one peer's standing at a choke tick.
type chokeCand struct {
	peer       *Peer
	rate       uint64 // bytes received from the peer since the last tick
	interested bool
	choked     bool // our current choke state toward the peer
}

// chokePlan lists peers whose choke state should flip.
type chokePlan struct {
	cands      []chokeCand
	unchoke    []*Peer
	choke      []*Peer
	optimistic *Peer
}

// updateChokeList snapshots candidate peers and their per-tick upload
// rates (reader on the table) and publishes the msg/* observer streams.
func (s *Server) updateChokeList(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	plan := &chokePlan{optimistic: s.optimistic}
	for p := range s.peers {
		if !p.ready.Load() {
			continue
		}
		if s.cfg.MaxUnchoked <= 0 {
			// Benchmark modification: unchoke everyone still choked.
			if p.choked.Load() {
				plan.unchoke = append(plan.unchoke, p)
			}
			continue
		}
		got := p.bytesIn.Load()
		plan.cands = append(plan.cands, chokeCand{
			peer:       p,
			rate:       got - p.rateBase,
			interested: p.interested.Load(),
			choked:     p.choked.Load(),
		})
		p.rateBase = got
	}
	s.publishMsgStreams()
	return runtime.Record{plan}, nil
}

// publishMsgStreams samples the per-message-type counters and the piece
// latency p95 onto the observer plane's QueueDepth surface under the
// msg/ prefix (registered as counters, so admission control skips them).
func (s *Server) publishMsgStreams() {
	obs := s.obs
	if obs == nil {
		return
	}
	for k, n := range s.MsgCounts() {
		obs.QueueDepth(s.cfg.Engine, runtime.MsgStreamPrefix+k, int(n))
	}
	_, p95 := s.PieceLatency()
	obs.QueueDepth(s.cfg.Engine, runtime.MsgStreamPrefix+"piece-p95us", int(p95/time.Microsecond))
}

// optimisticRotation is how many choke ticks an optimistic unchoke
// lasts (BEP 3: the optimistic slot rotates every third 10s tick).
const optimisticRotation = 3

// pickChoked applies the choking policy. With MaxUnchoked set this is
// tit-for-tat plus optimistic unchoke: the MaxUnchoked-1 fastest
// uploaders among interested peers keep their slots, one choked peer is
// optimistically unchoked (rotating every optimisticRotation ticks), and
// everyone else is choked. Without it the paper's benchmark policy —
// unchoke everyone — was already planned by UpdateChokeList.
func (s *Server) pickChoked(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	plan := in[0].(*chokePlan)
	if s.cfg.MaxUnchoked <= 0 {
		return in, nil
	}
	s.chokeTick++
	if s.optimistic == nil || s.chokeTick%optimisticRotation == 0 {
		// Rotate the optimistic slot onto a random choked interested peer.
		var pool []*Peer
		for _, c := range plan.cands {
			if c.choked && c.interested && c.peer != s.optimistic {
				pool = append(pool, c.peer)
			}
		}
		if len(pool) > 0 {
			s.optimistic = pool[s.chokeRng.Intn(len(pool))]
		}
	}
	plan.optimistic = s.optimistic
	plan.unchoke, plan.choke = planChokes(plan.cands, s.cfg.MaxUnchoked, plan.optimistic)
	return in, nil
}

// planChokes is the pure tit-for-tat policy: rank interested peers by
// their per-tick upload rate, keep the top maxUnchoked-1 plus the
// optimistic slot unchoked, choke the rest. Returned lists contain only
// peers whose state must flip.
func planChokes(cands []chokeCand, maxUnchoked int, optimistic *Peer) (unchoke, choke []*Peer) {
	regular := maxUnchoked
	hasOptimistic := false
	for _, c := range cands {
		if c.peer == optimistic {
			hasOptimistic = true
		}
	}
	if hasOptimistic && regular > 0 {
		regular--
	}
	ranked := make([]chokeCand, 0, len(cands))
	for _, c := range cands {
		if c.interested && c.peer != optimistic {
			ranked = append(ranked, c)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].rate > ranked[j].rate })
	keep := make(map[*Peer]bool, regular+1)
	for i := 0; i < len(ranked) && i < regular; i++ {
		keep[ranked[i].peer] = true
	}
	if hasOptimistic {
		keep[optimistic] = true
	}
	for _, c := range cands {
		switch {
		case keep[c.peer] && c.choked:
			unchoke = append(unchoke, c.peer)
		case !keep[c.peer] && !c.choked:
			choke = append(choke, c.peer)
		}
	}
	return unchoke, choke
}

// sendChokeUnchoke transmits the plan.
func (s *Server) sendChokeUnchoke(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	plan := in[0].(*chokePlan)
	for _, p := range plan.unchoke {
		p.choked.Store(false)
		_ = p.send(&torrent.Message{ID: torrent.MsgUnchoke})
	}
	for _, p := range plan.choke {
		p.choked.Store(true)
		_ = p.send(&torrent.Message{ID: torrent.MsgChoke})
	}
	return nil, nil
}

// --- keep-alive flow -----------------------------------------------------------

func (s *Server) sendKeepAlives(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	for p := range s.peers {
		if p.ready.Load() {
			_ = p.send(&torrent.Message{ID: torrent.MsgKeepAlive})
		}
	}
	return nil, nil
}

// --- tracker flow ---------------------------------------------------------------

// trackerReq is the assembled announce request.
type trackerReq struct {
	url string
}

// trackerResp is the decoded announce response.
type trackerResp struct {
	interval int64
	peers    []string // host:port
}

// checkinWithTracker assembles the announce URL.
func (s *Server) checkinWithTracker(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	_, portStr, err := splitHostPort(s.Addr())
	if err != nil {
		return nil, err
	}
	q := url.Values{}
	q.Set("info_hash", string(s.cfg.Meta.InfoHash[:]))
	q.Set("peer_id", string(s.peerID[:]))
	q.Set("port", portStr)
	left := int64(0)
	if !s.store.Complete() {
		left = s.cfg.Meta.Length
	}
	q.Set("left", strconv.FormatInt(left, 10))
	return runtime.Record{&trackerReq{url: s.announceURL() + "?" + q.Encode()}}, nil
}

func splitHostPort(addr string) (string, string, error) {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[:i], addr[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("bittorrent: malformed address %q", addr)
}

// sendRequestToTracker performs the HTTP announce; failures route to
// TrackerFailed.
func (s *Server) sendRequestToTracker(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	req := in[0].(*trackerReq)
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(req.url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	v, err := bencode.Decode(body)
	if err != nil {
		return nil, err
	}
	dict, ok := v.(map[string]any)
	if !ok {
		return nil, errors.New("bittorrent: tracker response is not a dictionary")
	}
	tr := &trackerResp{}
	tr.interval, _ = dict["interval"].(int64)
	if plist, ok := dict["peers"].([]any); ok {
		for _, pv := range plist {
			pd, ok := pv.(map[string]any)
			if !ok {
				continue
			}
			ip, _ := pd["ip"].(string)
			port, _ := pd["port"].(int64)
			if ip != "" && port > 0 {
				tr.peers = append(tr.peers, fmt.Sprintf("%s:%d", ip, port))
			}
		}
	}
	return runtime.Record{tr}, nil
}

// getTrackerResponse connects to newly discovered peers when leeching.
func (s *Server) getTrackerResponse(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	tr := in[0].(*trackerResp)
	if s.store.Complete() {
		return nil, nil // seeders wait for inbound connections
	}
	self := s.Addr()
	for _, addr := range tr.peers {
		if addr == self {
			continue
		}
		_ = s.ConnectTo(addr)
	}
	return nil, nil
}

// trackerFailed swallows announce errors; the next timer tick retries.
func (s *Server) trackerFailed(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	return nil, nil
}
