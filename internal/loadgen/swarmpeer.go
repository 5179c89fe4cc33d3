package loadgen

import (
	"context"
	"crypto/rand"
	"errors"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/metrics"
	"github.com/flux-lang/flux/internal/torrent"
)

// SwarmStats aggregates counters shared by every peer in a swarm run.
type SwarmStats struct {
	Completions atomic.Uint64 // full-file downloads finished
	Pieces      atomic.Uint64 // verified pieces downloaded
	BytesDown   atomic.Uint64 // piece payload bytes received
	BytesUp     atomic.Uint64 // piece payload bytes sent
	Errors      atomic.Uint64 // connection/protocol/verification failures

	msgs torrent.Counts

	// PieceLat records claim-to-verified latency per piece.
	PieceLat *metrics.LatencyRecorder
}

// NewSwarmStats returns an empty shared counter set.
func NewSwarmStats() *SwarmStats {
	return &SwarmStats{PieceLat: metrics.NewLatencyRecorder()}
}

// Msgs snapshots the per-message-type receive counters.
func (s *SwarmStats) Msgs() map[string]uint64 { return s.msgs.Snapshot() }

// ResetWindow zeroes every counter (warm-up trimming).
func (s *SwarmStats) ResetWindow() {
	s.Completions.Store(0)
	s.Pieces.Store(0)
	s.BytesDown.Store(0)
	s.BytesUp.Store(0)
	s.Errors.Store(0)
	s.msgs.Reset()
	s.PieceLat.Reset()
}

// SwarmPeerConfig tunes one swarm peer.
type SwarmPeerConfig struct {
	// Meta identifies the torrent.
	Meta *torrent.MetaInfo
	// Content, when non-nil, makes the peer a seeder.
	Content []byte
	// Bootstrap lists peer addresses to dial and keep dialed.
	Bootstrap []string
	// Pipeline bounds outstanding block requests per connection
	// (default 8).
	Pipeline int
	// ChokeInterval paces the tit-for-tat recomputation (default 1s).
	ChokeInterval time.Duration
	// MaxUnchoked bounds simultaneously unchoked connections: the
	// MaxUnchoked-1 fastest uploaders plus one optimistic slot
	// (default 4).
	MaxUnchoked int
	// KeepAliveInterval paces keep-alive frames on quiet connections
	// (default 15s).
	KeepAliveInterval time.Duration
	// RequestTimeout reaps a connection whose outstanding requests have
	// stalled (default 10s).
	RequestTimeout time.Duration
	// Seed seeds the peer's RNG (optimistic-unchoke rotation).
	Seed int64
	// Loop, when set, resets a completed leecher to an empty store and
	// redials its bootstrap set — a continuous stream of arriving
	// downloaders, keeping offered swarm load constant.
	Loop bool
	// Stats receives the peer's counters (required).
	Stats *SwarmStats
}

// SwarmPeer is a real BitTorrent peer for swarm load generation:
// handshake, bitfield exchange, the full choke/unchoke state machine,
// rarest-first piece selection over observed have/bitfield state,
// request pipelining with endgame cancels, and keep-alives. Leechers
// exchange verified pieces among themselves — every peer both serves
// and requests.
type SwarmPeer struct {
	cfg    SwarmPeerConfig
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	stats  *SwarmStats
	peerID [20]byte

	mu         sync.Mutex
	store      *torrent.Store
	conns      map[*swarmConn]bool
	claims     map[int]*swarmConn // piece -> conn it is requested on
	claimAt    map[int]time.Time
	avail      []int // per-piece availability over connected remotes
	optimistic *swarmConn
	chokeTicks int
	lastDial   map[string]time.Time
	closed     bool
	rng        *mrand.Rand
}

// NewSwarmPeer prepares a peer (listener bound, nothing running).
func NewSwarmPeer(cfg SwarmPeerConfig) (*SwarmPeer, error) {
	if cfg.Meta == nil || cfg.Stats == nil {
		return nil, errors.New("loadgen: swarm peer needs Meta and Stats")
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 8
	}
	if cfg.ChokeInterval <= 0 {
		cfg.ChokeInterval = time.Second
	}
	if cfg.MaxUnchoked <= 0 {
		cfg.MaxUnchoked = 4
	}
	if cfg.KeepAliveInterval <= 0 {
		cfg.KeepAliveInterval = 15 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	var store *torrent.Store
	var err error
	if cfg.Content != nil {
		store, err = torrent.NewSeeder(cfg.Meta, cfg.Content)
		if err != nil {
			return nil, err
		}
	} else {
		store = torrent.NewLeecher(cfg.Meta)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &SwarmPeer{
		cfg:      cfg,
		ln:       ln,
		stats:    cfg.Stats,
		store:    store,
		conns:    make(map[*swarmConn]bool),
		claims:   make(map[int]*swarmConn),
		claimAt:  make(map[int]time.Time),
		avail:    make([]int, cfg.Meta.NumPieces()),
		lastDial: make(map[string]time.Time),
		rng:      mrand.New(mrand.NewSource(cfg.Seed)),
	}
	rand.Read(p.peerID[:])
	copy(p.peerID[:8], "-SWRM01-")
	return p, nil
}

// Addr returns the peer's listen address.
func (p *SwarmPeer) Addr() string { return p.ln.Addr().String() }

// Start launches the accept loop, the bootstrap dialer, and the
// choke/keep-alive/timeout tick loop.
func (p *SwarmPeer) Start(ctx context.Context) {
	p.ctx, p.cancel = context.WithCancel(ctx)
	p.wg.Add(2)
	go p.acceptLoop()
	go p.tickLoop()
}

// Close stops the peer and waits for its goroutines.
func (p *SwarmPeer) Close() {
	if p.cancel != nil {
		p.cancel()
	}
	p.ln.Close()
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.shut()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Complete reports whether the current store holds the whole file.
func (p *SwarmPeer) Complete() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.Complete()
}

func (p *SwarmPeer) acceptLoop() {
	defer p.wg.Done()
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.runConn(nc, "")
		}()
	}
}

// tickLoop drives everything periodic: redialing the bootstrap set
// (self-healing topology), the choke recomputation, keep-alives, and
// the stalled-request sweep.
func (p *SwarmPeer) tickLoop() {
	defer p.wg.Done()
	period := 100 * time.Millisecond
	if period > p.cfg.ChokeInterval {
		period = p.cfg.ChokeInterval
	}
	t := time.NewTicker(period)
	defer t.Stop()
	lastChoke := time.Now()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-t.C:
		}
		p.redialBootstrap()
		p.sweepStalled()
		if time.Since(lastChoke) >= p.cfg.ChokeInterval {
			lastChoke = time.Now()
			p.chokeTick()
		}
	}
}

// redialBootstrap dials any bootstrap address without a live outbound
// connection, with a per-address backoff.
func (p *SwarmPeer) redialBootstrap() {
	p.mu.Lock()
	var dial []string
	for _, addr := range p.cfg.Bootstrap {
		live := false
		for c := range p.conns {
			if c.dialAddr == addr {
				live = true
				break
			}
		}
		if !live && time.Since(p.lastDial[addr]) >= 500*time.Millisecond {
			p.lastDial[addr] = time.Now()
			dial = append(dial, addr)
		}
	}
	p.mu.Unlock()
	for _, addr := range dial {
		p.wg.Add(1)
		go func(addr string) {
			defer p.wg.Done()
			d := net.Dialer{Timeout: 3 * time.Second}
			nc, err := d.DialContext(p.ctx, "tcp", addr)
			if err != nil {
				p.stats.Errors.Add(1)
				return
			}
			p.runConn(nc, addr)
		}(addr)
	}
}

// sweepStalled closes connections whose oldest outstanding request has
// exceeded RequestTimeout — a dead or permanently choking remote; its
// claims release for other connections to pick up.
func (p *SwarmPeer) sweepStalled() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		for _, t := range c.outstanding {
			if time.Since(t) > p.cfg.RequestTimeout {
				p.stats.Errors.Add(1)
				c.shut()
				break
			}
		}
	}
}

// chokeTick recomputes choking: tit-for-tat keeps the MaxUnchoked-1
// fastest uploaders unchoked, one optimistic slot rotates every third
// tick, everyone else is choked. Quiet connections get keep-alives.
func (p *SwarmPeer) chokeTick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.chokeTicks++
	type cand struct {
		c    *swarmConn
		rate uint64
	}
	var interested []cand
	for c := range p.conns {
		if time.Since(c.lastSend) >= p.cfg.KeepAliveInterval {
			c.queue(torrent.Message{ID: torrent.MsgKeepAlive})
		}
		if c.peerInterested {
			interested = append(interested, cand{c, c.bytesFrom - c.rateBase})
		}
		c.rateBase = c.bytesFrom
	}
	if p.optimistic == nil || !p.conns[p.optimistic] || p.chokeTicks%3 == 0 {
		var pool []*swarmConn
		for _, cd := range interested {
			if cd.c.amChoking && cd.c != p.optimistic {
				pool = append(pool, cd.c)
			}
		}
		if len(pool) > 0 {
			p.optimistic = pool[p.rng.Intn(len(pool))]
		}
	}
	slots := p.cfg.MaxUnchoked
	keep := make(map[*swarmConn]bool, slots)
	if p.optimistic != nil && p.conns[p.optimistic] {
		keep[p.optimistic] = true
		slots--
	}
	// Selection sort of the top uploaders — interested sets are small.
	for len(keep) < p.cfg.MaxUnchoked && slots > 0 {
		best := -1
		for i, cd := range interested {
			if !keep[cd.c] && (best < 0 || cd.rate > interested[best].rate) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		keep[interested[best].c] = true
		slots--
	}
	for c := range p.conns {
		switch {
		case keep[c] && c.amChoking:
			c.amChoking = false
			c.queue(torrent.Message{ID: torrent.MsgUnchoke})
		case !keep[c] && !c.amChoking && c.peerInterested:
			c.amChoking = true
			c.queue(torrent.Message{ID: torrent.MsgChoke})
		}
	}
}

// --- per-connection state ----------------------------------------------------

type blockKey struct {
	piece int
	begin int
}

// swarmConn is one peer-to-peer connection and its protocol state, all
// guarded by the owning peer's mutex. One writer goroutine per
// connection drains ctl (control messages) then reqQueue (block serves),
// so a reader never blocks on its own peer's sends. Piece payloads are
// not materialized in a queue: the remote's requests wait in reqQueue
// and their blocks are read from the store at send time, so a cancel
// can still remove them.
type swarmConn struct {
	p        *SwarmPeer
	nc       net.Conn
	dialAddr string // "" for inbound
	notify   chan struct{}

	remote         torrent.Bitfield
	amChoking      bool
	amInterested   bool
	peerChoking    bool
	peerInterested bool

	outstanding map[blockKey]time.Time // our requests awaiting blocks
	ctl         []torrent.Message
	reqQueue    []*torrent.Message // remote's requests awaiting service
	bytesFrom   uint64
	rateBase    uint64
	lastSend    time.Time
	closed      bool
}

// queue appends a control message and kicks the writer (p.mu held).
func (c *swarmConn) queue(m torrent.Message) {
	c.ctl = append(c.ctl, m)
	c.kick()
}

func (c *swarmConn) kick() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// shut closes the connection once (p.mu held); the reader's exit runs
// the full cleanup.
func (c *swarmConn) shut() {
	if !c.closed {
		c.closed = true
		c.nc.Close()
		c.kick()
	}
}

// runConn performs the handshake and runs the connection to its end.
func (p *SwarmPeer) runConn(nc net.Conn, dialAddr string) {
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if err := torrent.WriteHandshake(nc, p.cfg.Meta.InfoHash, p.peerID); err != nil {
		p.stats.Errors.Add(1)
		nc.Close()
		return
	}
	if infoHash, _, err := torrent.ReadHandshake(nc); err != nil || infoHash != p.cfg.Meta.InfoHash {
		p.stats.Errors.Add(1)
		nc.Close()
		return
	}
	nc.SetDeadline(time.Time{})

	c := &swarmConn{
		p:           p,
		nc:          nc,
		dialAddr:    dialAddr,
		notify:      make(chan struct{}, 1),
		remote:      torrent.NewBitfield(p.cfg.Meta.NumPieces()),
		amChoking:   true,
		peerChoking: true,
		outstanding: make(map[blockKey]time.Time),
		lastSend:    time.Now(),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		nc.Close()
		return
	}
	p.conns[c] = true
	c.queue(torrent.Message{ID: torrent.MsgBitfield, Payload: p.store.Bitfield()})
	p.mu.Unlock()

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		c.writerLoop()
	}()
	c.readLoop()
	p.dropConn(c)
}

// dropConn unregisters a dead connection: availability contributions,
// piece claims, and the optimistic slot all release.
func (p *SwarmPeer) dropConn(c *swarmConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.conns[c] {
		return
	}
	delete(p.conns, c)
	c.shut()
	for i := range p.avail {
		if c.remote.Has(i) {
			p.avail[i]--
		}
	}
	p.releaseClaims(c)
	if p.optimistic == c {
		p.optimistic = nil
	}
}

// releaseClaims frees every piece claimed on c (p.mu held).
func (p *SwarmPeer) releaseClaims(c *swarmConn) {
	for piece, owner := range p.claims {
		if owner == c {
			delete(p.claims, piece)
			delete(p.claimAt, piece)
		}
	}
}

// writerLoop drains control messages, then serves one queued block
// request per round.
func (c *swarmConn) writerLoop() {
	p := c.p
	for {
		select {
		case <-c.notify:
		case <-p.ctx.Done():
			return
		}
		for {
			p.mu.Lock()
			if c.closed {
				p.mu.Unlock()
				return
			}
			m, ok := c.next()
			if ok {
				c.lastSend = time.Now()
			}
			p.mu.Unlock()
			if !ok {
				break
			}
			if err := torrent.WriteMessage(c.nc, &m); err != nil {
				return
			}
			if m.ID == torrent.MsgPiece {
				p.stats.BytesUp.Add(uint64(len(m.Payload)))
			}
		}
	}
}

// next pops the next message to send: a control message, else a piece
// answering the oldest queued request, its block read from the store
// now. A request for a block we no longer hold (post-reset store) is
// silently skipped; the remote's request times out into its own sweep
// (p.mu held).
func (c *swarmConn) next() (torrent.Message, bool) {
	if len(c.ctl) > 0 {
		m := c.ctl[0]
		c.ctl = c.ctl[1:]
		return m, true
	}
	for len(c.reqQueue) > 0 {
		req := c.reqQueue[0]
		c.reqQueue = c.reqQueue[1:]
		blk, err := c.p.store.ReadBlock(int(req.Index), int64(req.Begin), int64(req.Length))
		if err == nil {
			return torrent.Message{ID: torrent.MsgPiece, Index: req.Index, Begin: req.Begin, Payload: blk}, true
		}
	}
	return torrent.Message{}, false
}

// readLoop consumes wire messages until the connection dies. A malformed
// frame, or one the state machine rejects, counts as an error.
func (c *swarmConn) readLoop() {
	p := c.p
	for {
		body, err := torrent.ReadFrame(c.nc)
		if err != nil {
			return
		}
		m, err := torrent.ParseMessageBody(body)
		if err == nil {
			p.stats.msgs.Add(m)
			err = p.handleMessage(c, m)
		}
		if err != nil {
			p.stats.Errors.Add(1)
			return
		}
	}
}

// handleMessage advances the protocol state machine for one received
// message.
func (p *SwarmPeer) handleMessage(c *swarmConn, m *torrent.Message) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.closed {
		return nil
	}
	n := p.cfg.Meta.NumPieces()
	switch m.ID {
	case torrent.MsgChoke: // outstanding requests are void, claims release
		c.peerChoking = true
		c.outstanding = make(map[blockKey]time.Time)
		p.releaseClaims(c)
	case torrent.MsgUnchoke:
		c.peerChoking = false
		p.fillPipeline(c)
	case torrent.MsgInterested:
		c.peerInterested = true
	case torrent.MsgNotInterested:
		c.peerInterested = false
	case torrent.MsgHave:
		// Compare before converting: on a 32-bit platform int(1<<31)
		// is negative and would pass a range check on the int.
		if m.Index >= uint32(n) {
			return errors.New("loadgen: have out of range")
		}
		idx := int(m.Index)
		if !c.remote.Has(idx) {
			c.remote.Set(idx)
			p.avail[idx]++
		}
		p.updateInterest(c)
		p.fillPipeline(c)
	case torrent.MsgBitfield:
		bf := torrent.Bitfield(m.Payload)
		if len(bf) != len(torrent.NewBitfield(n)) {
			return errors.New("loadgen: malformed bitfield")
		}
		for i := 0; i < n; i++ {
			if c.remote.Has(i) {
				p.avail[i]--
			}
		}
		c.remote = bf.Clone()
		for i := 0; i < n; i++ {
			if c.remote.Has(i) {
				p.avail[i]++
			}
		}
		p.updateInterest(c)
		p.fillPipeline(c)
	case torrent.MsgRequest:
		if c.amChoking || len(c.reqQueue) >= 512 {
			return nil // choked peers get nothing; absurd queues drop
		}
		if m.Index >= uint32(n) || m.Length > torrent.BlockSize {
			return errors.New("loadgen: bad request bounds")
		}
		c.reqQueue = append(c.reqQueue, m)
		c.kick()
	case torrent.MsgPiece:
		return p.onBlock(c, m)
	case torrent.MsgCancel:
		for i, r := range c.reqQueue {
			if r.Index == m.Index && r.Begin == m.Begin {
				c.reqQueue = append(c.reqQueue[:i], c.reqQueue[i+1:]...)
				break
			}
		}
	}
	return nil
}

// onBlock stores one received block (p.mu held).
func (p *SwarmPeer) onBlock(c *swarmConn, m *torrent.Message) error {
	piece, begin, blk := int(m.Index), int64(m.Begin), m.Payload
	delete(c.outstanding, blockKey{piece, int(begin)})
	c.bytesFrom += uint64(len(blk))
	p.stats.BytesDown.Add(uint64(len(blk)))
	done, err := p.store.WriteBlock(piece, begin, blk)
	if err != nil {
		if errors.Is(err, torrent.ErrBadPiece) {
			// Corrupt piece: drop the claim so another connection can
			// re-request it, and penalize the sender by closing it.
			delete(p.claims, piece)
			delete(p.claimAt, piece)
			return err
		}
		// Stale block for a piece we already completed (endgame
		// duplicate): ignore.
		return nil
	}
	if done {
		p.stats.Pieces.Add(1)
		if t, ok := p.claimAt[piece]; ok {
			p.stats.PieceLat.Record(time.Since(t))
		}
		delete(p.claims, piece)
		delete(p.claimAt, piece)
		// Cancel endgame duplicates still outstanding elsewhere and
		// announce the piece everywhere.
		for oc := range p.conns {
			for key := range oc.outstanding {
				if key.piece == piece {
					delete(oc.outstanding, key)
					_, length := p.store.BlockSpec(piece, key.begin/torrent.BlockSize)
					oc.queue(torrent.Message{ID: torrent.MsgCancel, Index: uint32(piece), Begin: uint32(key.begin), Length: uint32(length)})
				}
			}
			oc.queue(torrent.Message{ID: torrent.MsgHave, Index: uint32(piece)})
		}
		if p.store.Complete() {
			p.stats.Completions.Add(1)
			if p.cfg.Loop {
				p.resetAsLeecher()
				return nil
			}
		}
	}
	p.fillPipeline(c)
	return nil
}

// resetAsLeecher empties the store and drops every connection; the tick
// loop redials the bootstrap set, so the peer rejoins the swarm as a
// fresh downloader (p.mu held).
func (p *SwarmPeer) resetAsLeecher() {
	p.store = torrent.NewLeecher(p.cfg.Meta)
	p.claims = make(map[int]*swarmConn)
	p.claimAt = make(map[int]time.Time)
	for c := range p.conns {
		c.shut()
	}
}

// updateInterest flips our interested state toward c based on whether
// it holds pieces we miss (p.mu held).
func (p *SwarmPeer) updateInterest(c *swarmConn) {
	want := false
	if !p.store.Complete() {
		for _, i := range p.store.Bitfield().Missing(p.cfg.Meta.NumPieces()) {
			if c.remote.Has(i) {
				want = true
				break
			}
		}
	}
	if want != c.amInterested {
		c.amInterested = want
		if want {
			c.queue(torrent.Message{ID: torrent.MsgInterested})
		} else {
			c.queue(torrent.Message{ID: torrent.MsgNotInterested})
		}
	}
}

// fillPipeline keeps our request pipeline full on c: claim the rarest
// piece c holds that nobody is fetching and request all its blocks; in
// endgame (everything claimed) duplicate-request claimed pieces so one
// slow peer cannot stall completion (p.mu held).
func (p *SwarmPeer) fillPipeline(c *swarmConn) {
	if c.closed || c.peerChoking || !c.amInterested || p.store.Complete() {
		return
	}
	for len(c.outstanding) < p.cfg.Pipeline {
		piece, claimed, ok := p.pickPiece(c)
		if !ok {
			return
		}
		if claimed {
			p.claims[piece] = c
			p.claimAt[piece] = time.Now()
		}
		nb := p.store.NumBlocks(piece)
		for b := 0; b < nb; b++ {
			begin, length := p.store.BlockSpec(piece, b)
			key := blockKey{piece, int(begin)}
			if _, dup := c.outstanding[key]; dup {
				continue
			}
			c.outstanding[key] = time.Now()
			c.queue(torrent.Message{ID: torrent.MsgRequest, Index: uint32(piece), Begin: uint32(begin), Length: uint32(length)})
		}
	}
}

// pickPiece selects the next piece to request on c: rarest-first over
// unclaimed missing pieces, choosing uniformly among ties — without the
// randomization every peer fetches pieces in the same global order and
// the whole swarm synchronizes on the last few pieces, which then exist
// only at the seed. Falls back to an endgame duplicate of a piece
// claimed elsewhere that c also holds. claimed reports whether the
// caller should record a fresh claim (p.mu held).
func (p *SwarmPeer) pickPiece(c *swarmConn) (piece int, claimed, ok bool) {
	missing := p.store.Bitfield().Missing(p.cfg.Meta.NumPieces())
	best := -1
	bestAvail := int(^uint(0) >> 1)
	ties := 0
	for _, i := range missing {
		if c.remote.Has(i) && p.claims[i] == nil {
			switch {
			case p.avail[i] < bestAvail:
				best, bestAvail, ties = i, p.avail[i], 1
			case p.avail[i] == bestAvail:
				// Reservoir-sample one of the equally-rare pieces.
				ties++
				if p.rng.Intn(ties) == 0 {
					best = i
				}
			}
		}
	}
	if best >= 0 {
		return best, true, true
	}
	// Endgame: every missing piece is claimed; duplicate one not
	// already outstanding here.
	for _, i := range missing {
		if !c.remote.Has(i) || p.claims[i] == c || p.claims[i] == nil {
			continue
		}
		dup := false
		for key := range c.outstanding {
			if key.piece == i {
				dup = true
				break
			}
		}
		if !dup {
			return i, false, true
		}
	}
	return 0, false, false
}
