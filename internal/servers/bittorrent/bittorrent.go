// The Flux BitTorrent peer. The program graph follows Figure 7 of the
// paper: a Listen source sets up incoming peer connections; a Poll
// source (the select loop) feeds the message flow whose HandleMessage
// node dispatches on the wire message type; choke, keep-alive, and
// tracker timers drive their own flows. Peers are Flux sessions: the
// per-peer protocol state is guarded by a session-scoped constraint
// (§2.5.1), while the peer table and the piece store use global
// constraints.
//
// Connection admission runs on the shared connection plane
// (internal/netkit): the plane's accept loop wraps each connection in
// pooled state and admits it through the runtime's external-admission
// path (Server.Inject via a pre-resolved SourceHandle); outbound dials
// (leecher bootstrap, tracker discovery) are adopted onto the same
// plane through AdmitDialed. Overload control — a queue-depth watermark
// gate, a live-connection cap, and optionally the SLO controller —
// sheds fresh peers with counted ConnShed events instead of queueing
// them unboundedly.
//
// Readiness substrate: the paper's runtime intercepts blocking socket
// reads and multiplexes them with select; here every registered peer has
// a pump goroutine reading raw frames into a bounded inbox that the Poll
// source drains with a timeout. An empty poll errors at CheckSockets,
// reproducing the paper's most frequently executed path ("... ->
// CheckSockets -> ERROR", §5.2).
package bittorrent

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lang/parser"
	"github.com/flux-lang/flux/internal/netkit"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/telemetry"
	"github.com/flux-lang/flux/internal/torrent"
)

// FluxSource is the peer's Flux program (the shape of Figure 7).
const FluxSource = `
// --- incoming connections ---------------------------------------------
Listen () => (peerconn c);
SetupConnection (peerconn c) => (peerconn c);
Handshake (peerconn c) => (peerconn c);
SendBitfield (peerconn c) => ();
DropConn (peerconn c) => ();

source Listen => Accept;
Accept = SetupConnection -> Handshake -> SendBitfield;
handle error Handshake => DropConn;

// --- message processing (the select loop) ------------------------------
Poll () => (polltoken *tok);
GetClients (polltoken *tok) => (polltoken *tok);
SelectSockets (polltoken *tok) => (polltoken *tok);
CheckSockets (polltoken *tok) => (peerref *p, bool close, message *msg);
ReadMessage (peerref *p, bool close, message *msg) => (peerref *p, bool close, message *msg);
MessageDone (peerref *p, bool close, message *msg) => ();
DropPeer (peerref *p, bool close, message *msg) => ();

Bitfield (peerref *p, bool close, message *msg) => (peerref *p, bool close, message *msg);
Have (peerref *p, bool close, message *msg) => (peerref *p, bool close, message *msg);
Interested (peerref *p, bool close, message *msg) => (peerref *p, bool close, message *msg);
Uninterested (peerref *p, bool close, message *msg) => (peerref *p, bool close, message *msg);
Choke (peerref *p, bool close, message *msg) => (peerref *p, bool close, message *msg);
Unchoke (peerref *p, bool close, message *msg) => (peerref *p, bool close, message *msg);
Request (peerref *p, bool close, message *msg) => (peerref *p, bool close, message *msg);
Cancel (peerref *p, bool close, message *msg) => (peerref *p, bool close, message *msg);
Piece (peerref *p, bool close, message *msg) => (peerref *p, bool close, message *msg);
CompletePiece (peerref *p, bool close, message *msg) => (peerref *p, bool close, message *msg);
Unregister (peerref *p, bool close, message *msg) => (peerref *p, bool close, message *msg);

source Poll => Message;
Message = GetClients -> SelectSockets -> CheckSockets -> ReadMessage -> HandleMessage -> MessageDone;
handle error ReadMessage => DropPeer;

typedef bitfield IsBitfield;
typedef have IsHave;
typedef interested IsInterested;
typedef uninterested IsUninterested;
typedef choke IsChoke;
typedef unchoke IsUnchoke;
typedef request IsRequest;
typedef cancel IsCancel;
typedef piece IsPiece;
typedef closed IsClosed;
typedef piececomplete IsPieceComplete;

HandleMessage:[_, _, bitfield] = Bitfield;
HandleMessage:[_, _, have] = Have;
HandleMessage:[_, _, interested] = Interested;
HandleMessage:[_, _, uninterested] = Uninterested;
HandleMessage:[_, _, choke] = Choke;
HandleMessage:[_, _, unchoke] = Unchoke;
HandleMessage:[_, _, request] = Request;
HandleMessage:[_, _, cancel] = Cancel;
HandleMessage:[_, _, piece] = Piece -> PieceDone;
HandleMessage:[_, _, closed] = Unregister;
HandleMessage:[_, _, _] = ;

PieceDone:[_, _, piececomplete] = CompletePiece;
PieceDone:[_, _, _] = ;

// --- timers -------------------------------------------------------------
ChokeTimer () => (int tick);
UpdateChokeList (int tick) => (chokeplan *plan);
PickChoked (chokeplan *plan) => (chokeplan *plan);
SendChokeUnchoke (chokeplan *plan) => ();
source ChokeTimer => ChokeFlow;
ChokeFlow = UpdateChokeList -> PickChoked -> SendChokeUnchoke;

KeepAliveTimer () => (int tick);
SendKeepAlives (int tick) => ();
source KeepAliveTimer => KeepAlive;
KeepAlive = SendKeepAlives;

TrackerTimer () => (int tick);
CheckinWithTracker (int tick) => (trackerreq *req);
SendRequestToTracker (trackerreq *req) => (trackerresp *resp);
GetTrackerResponse (trackerresp *resp) => ();
TrackerFailed (trackerreq *req) => ();
source TrackerTimer => Tracker;
Tracker = CheckinWithTracker -> SendRequestToTracker -> GetTrackerResponse;
handle error SendRequestToTracker => TrackerFailed;

// --- sessions and constraints -------------------------------------------
// Each peer is a session: per-peer protocol state contends only within
// the peer's own message flows.
session Poll PeerSession;

atomic SetupConnection:{peers};
atomic GetClients:{peers?};
atomic Unregister:{peers, store, peerstate(session)};
atomic DropPeer:{peers, store, peerstate(session)};
atomic UpdateChokeList:{peers?};
atomic SendKeepAlives:{peers?};
atomic CompletePiece:{peers?, store};
atomic Bitfield:{peerstate(session), store};
atomic Have:{peerstate(session), store};
atomic Interested:{peerstate(session)};
atomic Uninterested:{peerstate(session)};
atomic Choke:{peerstate(session)};
atomic Unchoke:{peerstate(session), store};
atomic Request:{peerstate(session)?, store?};
atomic Piece:{peerstate(session), store};
`

// Config tunes the peer.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// Meta and Content define the torrent; with Content the peer seeds,
	// without it the peer leeches.
	Meta    *torrent.MetaInfo
	Content []byte
	// AnnounceURL overrides Meta.Announce ("" disables the tracker
	// flow).
	AnnounceURL string
	// TrackerInterval is the check-in period (default 10s).
	TrackerInterval time.Duration
	// ChokeInterval is the choke recomputation period (default 10s).
	ChokeInterval time.Duration
	// KeepAliveInterval is the keep-alive period (default 30s).
	KeepAliveInterval time.Duration
	// PollInterval is the select timeout of the message loop (default
	// 500µs) — the paper's most frequent path is the empty poll.
	PollInterval time.Duration
	// Engine, PoolSize, SourceTimeout configure the runtime.
	Engine        runtime.EngineKind
	PoolSize      int
	SourceTimeout time.Duration
	// Telemetry, when non-nil, is the server's observer: flow terminals
	// by path (the §5.2 profile), node latencies, queue depths,
	// per-message-type counters (msg/*), and the connection plane's
	// sheds and admission counters.
	Telemetry *telemetry.Telemetry
	// MaxUnchoked, when > 0, enables real choking: each choke tick the
	// tit-for-tat policy unchokes the MaxUnchoked-1 fastest-uploading
	// interested peers plus one rotating optimistic slot, and chokes
	// the rest. 0 keeps the paper's benchmark modification — every
	// peer stays unchoked (§4.3).
	MaxUnchoked int
	// HandshakeTimeout bounds the 68-byte handshake exchange (default
	// 10s): a peer that dials and stalls mid-handshake is disconnected
	// and counted as a shed instead of pinning the accept flow forever.
	HandshakeTimeout time.Duration
	// IdleTimeout, when > 0, bounds the wait for the next frame from a
	// registered peer; dead keep-alive peers are reaped and counted the
	// same way. 0 waits forever (keep-alives normally arrive every
	// KeepAliveInterval).
	IdleTimeout time.Duration
	// WriteTimeout bounds every serialized wire write (default 30s): a
	// peer that stops draining its socket mid-frame would otherwise pin
	// the per-peer write mutex — and every broadcast flow behind it —
	// forever. On a pop the connection is torn down and the shed counted.
	WriteTimeout time.Duration
	// AdmitWatermark, when > 0, bounds admission: once the engine's
	// sampled queue depths sum past it, fresh peer connections are shed
	// (closed, counted) until the backlog drains.
	AdmitWatermark int
	// MaxConns, when > 0, caps live peer connections; accepts beyond it
	// are shed. Outbound dials bypass the cap (the server chose them).
	MaxConns int
	// TargetP95, when > 0, puts admission under the SLO controller:
	// served flow latency is measured on the Observer plane and every
	// control interval the watermark — and the connection cap — takes
	// one AIMD step toward holding the window's p95 at the target.
	TargetP95 time.Duration
}

// msgKinds enumerates the per-message-type counters, in wire-ID order
// with the two pseudo-kinds last.
var msgKinds = []string{
	"choke", "unchoke", "interested", "uninterested", "have",
	"bitfield", "request", "piece", "cancel", "keepalive", "closed",
}

func msgKindIndex(kind string) int {
	for i, k := range msgKinds {
		if k == kind {
			return i
		}
	}
	return -1
}

// Server is a runnable Flux BitTorrent peer.
type Server struct {
	cfg    Config
	prog   *core.Program
	rt     *runtime.Server
	cp     *netkit.FluxPlane
	ctrl   *netkit.Controller
	store  *torrent.Store
	peerID [20]byte

	inbox chan *inboxItem

	// peers is guarded by the Flux "peers" constraint.
	peers       map[*Peer]bool
	nextSession uint64

	// Leech-side piece claims, guarded by the "store" constraint:
	// requestedBy maps a claimed piece to the peer it was requested
	// from (claims release when that peer dies), requestedAt stamps the
	// claim for the piece-latency stream, avail counts how many
	// connected peers hold each piece (rarest-first input).
	requestedBy map[int]*Peer
	requestedAt map[int]time.Time
	avail       []int

	// pieceLat records request-to-verified latency per piece.
	pieceLat telemetry.Histogram

	// obs is the composed observer the runtime and plane report to;
	// the choke flow publishes the msg/* streams through it.
	obs runtime.Observer

	// msgCounts counts received messages per wire kind (msgKinds order).
	msgCounts [11]atomic.Uint64

	// Choke-flow state (single flow at a time): the optimistic-unchoke
	// slot, its rotation counter, and the rotation RNG.
	optimistic *Peer
	chokeTick  uint64
	chokeRng   *mrand.Rand

	// totalOut counts piece payload bytes served.
	totalOut atomic.Uint64

	// trackerTick paces the tracker flow.
	trackerTick runtime.SourceFunc

	startOnce sync.Once
	started   chan struct{}
}

// New compiles the program and prepares the peer.
func New(cfg Config) (*Server, error) {
	if cfg.Meta == nil {
		return nil, errors.New("bittorrent: Config.Meta is required")
	}
	if cfg.TrackerInterval <= 0 {
		cfg.TrackerInterval = 10 * time.Second
	}
	if cfg.ChokeInterval <= 0 {
		cfg.ChokeInterval = 10 * time.Second
	}
	if cfg.KeepAliveInterval <= 0 {
		cfg.KeepAliveInterval = 30 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Microsecond
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.TargetP95 > 0 && cfg.AdmitWatermark <= 0 {
		cfg.AdmitWatermark = 64 // the controller's starting point
	}

	astProg, err := parser.Parse("bittorrent.flux", FluxSource)
	if err != nil {
		return nil, fmt.Errorf("bittorrent: parse: %w", err)
	}
	prog, err := core.Build(astProg)
	if err != nil {
		return nil, fmt.Errorf("bittorrent: compile: %w", err)
	}

	var store *torrent.Store
	if cfg.Content != nil {
		store, err = torrent.NewSeeder(cfg.Meta, cfg.Content)
		if err != nil {
			return nil, err
		}
	} else {
		store = torrent.NewLeecher(cfg.Meta)
	}

	s := &Server{
		cfg:         cfg,
		prog:        prog,
		store:       store,
		inbox:       make(chan *inboxItem, 4096),
		peers:       make(map[*Peer]bool),
		requestedBy: make(map[int]*Peer),
		requestedAt: make(map[int]time.Time),
		avail:       make([]int, cfg.Meta.NumPieces()),
		started:     make(chan struct{}),
	}
	if _, err := rand.Read(s.peerID[:]); err != nil {
		return nil, err
	}
	copy(s.peerID[:8], "-FLUX01-")
	s.chokeRng = mrand.New(mrand.NewSource(int64(binary.BigEndian.Uint64(s.peerID[8:16]))))
	s.trackerTick = runtime.IntervalSource(cfg.TrackerInterval)

	gate, obs := netkit.NewGateObserver(cfg.AdmitWatermark, cfg.Telemetry.Observer())
	if cfg.TargetP95 > 0 {
		// The controller joins the observer chain now (FlowDone is its
		// input signal) and meets the plane after the runtime exists.
		ctrl, err := netkit.NewController(netkit.ControllerConfig{
			Target:   cfg.TargetP95,
			Interval: 50 * time.Millisecond,
			Step:     4,
			Kind:     cfg.Engine,
			Sink:     cfg.Telemetry.Observer(),
		}, gate, nil)
		if err != nil {
			return nil, fmt.Errorf("bittorrent: %w", err)
		}
		s.ctrl = ctrl
		obs = runtime.MultiObserver(obs, ctrl)
	}
	s.obs = obs

	b := runtime.NewBindings().
		BindSource("Listen", s.listen).
		BindSource("Poll", s.poll).
		BindSource("ChokeTimer", s.timer(cfg.ChokeInterval)).
		BindSource("KeepAliveTimer", s.timer(cfg.KeepAliveInterval)).
		BindSource("TrackerTimer", s.trackerTimer).
		BindNode("SetupConnection", s.setupConnection).
		BindNode("Handshake", s.handshake).
		BindNode("SendBitfield", s.sendBitfield).
		BindNode("DropConn", s.dropConn).
		BindNode("GetClients", s.getClients).
		BindNode("SelectSockets", s.selectSockets).
		BindNode("CheckSockets", s.checkSockets).
		BindNode("ReadMessage", s.readMessage).
		BindNode("MessageDone", s.messageDone).
		BindNode("DropPeer", s.dropPeer).
		BindNode("Bitfield", s.onBitfield).
		BindNode("Have", s.onHave).
		BindNode("Interested", s.onInterested).
		BindNode("Uninterested", s.onUninterested).
		BindNode("Choke", s.onChoke).
		BindNode("Unchoke", s.onUnchoke).
		BindNode("Request", s.onRequest).
		BindNode("Cancel", s.onCancel).
		BindNode("Piece", s.onPiece).
		BindNode("CompletePiece", s.completePiece).
		BindNode("Unregister", s.unregister).
		BindNode("UpdateChokeList", s.updateChokeList).
		BindNode("PickChoked", s.pickChoked).
		BindNode("SendChokeUnchoke", s.sendChokeUnchoke).
		BindNode("SendKeepAlives", s.sendKeepAlives).
		BindNode("CheckinWithTracker", s.checkinWithTracker).
		BindNode("SendRequestToTracker", s.sendRequestToTracker).
		BindNode("GetTrackerResponse", s.getTrackerResponse).
		BindNode("TrackerFailed", s.trackerFailed).
		BindSession("PeerSession", func(rec runtime.Record) uint64 {
			tok := rec[0].(*pollToken)
			if tok.item != nil && tok.item.peer != nil {
				return tok.item.peer.session
			}
			return 0
		}).
		BindPredicate("IsBitfield", kindPred("bitfield")).
		BindPredicate("IsHave", kindPred("have")).
		BindPredicate("IsInterested", kindPred("interested")).
		BindPredicate("IsUninterested", kindPred("uninterested")).
		BindPredicate("IsChoke", kindPred("choke")).
		BindPredicate("IsUnchoke", kindPred("unchoke")).
		BindPredicate("IsRequest", kindPred("request")).
		BindPredicate("IsCancel", kindPred("cancel")).
		BindPredicate("IsPiece", kindPred("piece")).
		BindPredicate("IsClosed", kindPred("closed")).
		BindPredicate("IsPieceComplete", func(v any) bool { return v.(*wireMsg).completed }).
		MarkBlocking("Handshake", "SendBitfield", "Request", "SendKeepAlives",
			"SendRequestToTracker", "SendChokeUnchoke", "CompletePiece")

	rt, err := runtime.New(prog, b,
		runtime.WithEngine(cfg.Engine),
		runtime.WithPoolSize(cfg.PoolSize),
		runtime.WithSourceTimeout(cfg.SourceTimeout),
		runtime.WithObserver(obs),
		runtime.WithQueueSampleInterval(netkit.SamplePeriod(cfg.AdmitWatermark)),
	)
	if err != nil {
		return nil, err
	}
	s.rt = rt
	s.cp, err = netkit.NewFluxPlane(rt, "Listen", netkit.Config{
		Addr:     cfg.Addr,
		Gate:     gate,
		MaxConns: cfg.MaxConns,
		// BitTorrent has no 503: shed peers are closed silently and the
		// remote treats the reset as a refusal.
		ShedResponse: nil,
		Observer:     obs,
		Name:         "bittorrent",
	})
	if err != nil {
		return nil, err
	}
	if s.ctrl != nil {
		s.ctrl.BindPlane(s.cp.Plane())
	}
	if cfg.Telemetry != nil {
		pl := s.cp.Plane()
		cfg.Telemetry.RegisterConns("bittorrent", func() telemetry.ConnStats {
			st := pl.Stats()
			return telemetry.ConnStats{Accepted: st.Accepted, Admitted: st.Admitted, Shed: st.Shed, Live: st.Live}
		})
	}
	return s, nil
}

func kindPred(kind string) runtime.PredicateFunc {
	return func(v any) bool { return v.(*wireMsg).kind == kind }
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.cp.Addr() }

// Program exposes the compiled program.
func (s *Server) Program() *core.Program { return s.prog }

// Stats exposes runtime counters.
func (s *Server) Stats() *runtime.Stats { return s.rt.Stats() }

// PlaneStats exposes the connection plane's admission counters.
func (s *Server) PlaneStats() netkit.StatsSnapshot { return s.cp.PlaneStats() }

// Gate exposes the admission gate (nil without an AdmitWatermark).
func (s *Server) Gate() *netkit.Gate { return s.cp.Gate() }

// Controller exposes the SLO controller (nil without a TargetP95).
func (s *Server) Controller() *netkit.Controller { return s.ctrl }

// Store exposes the piece store (for completeness checks in tests).
func (s *Server) Store() *torrent.Store { return s.store }

// BytesServed totals piece payload bytes sent to all peers, including
// ones that have disconnected.
func (s *Server) BytesServed() uint64 { return s.totalOut.Load() }

// MsgCounts snapshots the per-message-type receive counters.
func (s *Server) MsgCounts() map[string]uint64 {
	out := make(map[string]uint64, len(msgKinds))
	for i, k := range msgKinds {
		out[k] = s.msgCounts[i].Load()
	}
	return out
}

// PieceLatency returns the p50 and p95 of the request-to-verified piece
// latency (leech side), to the histogram's 12.5% bucket resolution.
func (s *Server) PieceLatency() (p50, p95 time.Duration) {
	h := s.pieceLat.Snapshot()
	return h.Quantile(0.50), h.Quantile(0.95)
}

// Start launches the Flux runtime, the connection plane's accept loop,
// and (with a TargetP95) the SLO control loop; the peer then serves
// until the context is cancelled or Shutdown is called.
func (s *Server) Start(ctx context.Context) error {
	if err := s.cp.Start(ctx); err != nil {
		return err
	}
	if s.ctrl != nil {
		s.ctrl.Start(ctx)
	}
	s.startOnce.Do(func() { close(s.started) })
	return nil
}

// Shutdown gracefully stops the peer: the plane stops accepting and
// interrupts every live connection (pumps report their peers dead), then
// the runtime stops admitting and drains in-flight flows until their
// terminals or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.ctrl != nil {
		s.ctrl.Stop()
	}
	return s.cp.Shutdown(ctx)
}

// Wait blocks until the run ends and returns its error.
func (s *Server) Wait() error { return s.cp.Wait() }

// Run serves until the context is cancelled: Start followed by Wait.
func (s *Server) Run(ctx context.Context) error {
	if err := s.Start(ctx); err != nil {
		return err
	}
	return s.Wait()
}

// ConnectTo dials a remote peer (leecher bootstrap) and adopts the
// connection onto the plane: it is injected through the same Accept
// pipeline as inbound peers and tracked for the shutdown sweep. Callers
// may race Start (tests launch Run concurrently); the dial waits for
// admission to be live.
func (s *Server) ConnectTo(addr string) error {
	select {
	case <-s.started:
	case <-time.After(5 * time.Second):
		return errors.New("bittorrent: server not started")
	}
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	return s.cp.AdmitDialed(nc)
}

// --- source nodes ----------------------------------------------------------

// listen is the graph's source node. The connection plane owns accept
// and admission: every peer connection — accepted or dialed — enters
// through Inject on this source's graph, so the source itself retires
// immediately; the Poll and timer sources keep the server alive.
func (s *Server) listen(fl *runtime.Flow) (runtime.Record, error) {
	return nil, runtime.ErrStop
}

// poll is the select loop: it returns a ready inbox item, or an empty
// token when the poll interval elapses with nothing ready.
func (s *Server) poll(fl *runtime.Flow) (runtime.Record, error) {
	wait := s.cfg.PollInterval
	if fl.SourceTimeout > 0 && fl.SourceTimeout < wait {
		wait = fl.SourceTimeout
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	if fl.Wake != nil {
		select {
		case item := <-s.inbox:
			return runtime.Record{&pollToken{item: item}}, nil
		case <-t.C:
			return runtime.Record{&pollToken{}}, nil
		case <-fl.Wake:
			// The engine has pending work; yield without consuming the
			// empty-poll path (which would count as a flow).
			return nil, runtime.ErrNoData
		case <-fl.Ctx.Done():
			return nil, fl.Ctx.Err()
		}
	}
	select {
	case item := <-s.inbox:
		return runtime.Record{&pollToken{item: item}}, nil
	case <-t.C:
		return runtime.Record{&pollToken{}}, nil
	case <-fl.Ctx.Done():
		return nil, fl.Ctx.Err()
	}
}

// timer builds a deadline-aware interval source.
func (s *Server) timer(interval time.Duration) runtime.SourceFunc {
	return runtime.IntervalSource(interval)
}

// trackerTimer stops immediately when no tracker is configured.
func (s *Server) trackerTimer(fl *runtime.Flow) (runtime.Record, error) {
	if s.announceURL() == "" {
		return nil, runtime.ErrStop
	}
	return s.trackerTick(fl)
}

func (s *Server) announceURL() string {
	if s.cfg.AnnounceURL != "" {
		return s.cfg.AnnounceURL
	}
	return s.cfg.Meta.Announce
}

// --- accept flow -------------------------------------------------------------

// setupConnection registers the peer under the peers constraint and
// assigns its session id.
func (s *Server) setupConnection(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	c := in[0].(*netkit.Conn)
	s.nextSession++
	p := &Peer{
		conn:         c,
		nc:           c.NetConn(),
		br:           c.Reader(),
		session:      s.nextSession,
		bitfield:     torrent.NewBitfield(s.cfg.Meta.NumPieces()),
		writeTimeout: s.cfg.WriteTimeout,
		onWriteTimeout: func() {
			s.cp.CountShed("write-timeout")
		},
	}
	// Real choking starts everyone choked; the paper's benchmark
	// modification starts everyone unchoked.
	p.choked.Store(s.cfg.MaxUnchoked > 0)
	s.peers[p] = true
	return runtime.Record{p}, nil
}

// handshake exchanges and validates handshakes under the handshake
// deadline; a peer that stalls mid-handshake is shed and counted.
func (s *Server) handshake(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	p := in[0].(*Peer)
	_ = p.nc.SetDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	p.writeMu.Lock()
	err := WriteHandshake(p.nc, s.cfg.Meta.InfoHash, s.peerID)
	p.writeMu.Unlock()
	if err != nil {
		return nil, s.shedIfTimeout(err, "handshake-timeout")
	}
	infoHash, peerID, err := ReadHandshake(p.br)
	if err != nil {
		return nil, s.shedIfTimeout(err, "handshake-timeout")
	}
	if infoHash != s.cfg.Meta.InfoHash {
		return nil, errors.New("bittorrent: info hash mismatch")
	}
	_ = p.nc.SetDeadline(time.Time{})
	p.id = peerID
	return in, nil
}

// shedIfTimeout counts a deadline pop as a shed on the plane before the
// error routes to its handler (which owns the close).
func (s *Server) shedIfTimeout(err error, reason string) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.cp.CountShed(reason)
	}
	return err
}

// sendBitfield announces our pieces, marks the peer ready for broadcast
// flows, and starts its read pump.
func (s *Server) sendBitfield(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	p := in[0].(*Peer)
	bf := s.store.Bitfield()
	if err := p.send(&Message{ID: MsgBitfield, Payload: bf}); err != nil {
		return nil, err
	}
	p.ready.Store(true)
	go s.pump(p)
	return nil, nil
}

// dropConn handles handshake failures. The pump has not started, so the
// flow owns the conn: it retires the pooled state and reports the peer
// dead through the inbox so the Unregister flow removes it from the
// table under the peers constraint.
func (s *Server) dropConn(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	switch v := in[0].(type) {
	case *netkit.Conn:
		v.Close()
	case *Peer:
		v.retire()
		select {
		case s.inbox <- &inboxItem{peer: v, err: io.EOF}:
		default:
		}
	}
	return nil, nil
}

// pump reads raw frames into the inbox until the connection dies — the
// per-socket half of the readiness substrate. It is the pooled conn's
// owner from SendBitfield on: retirement happens exactly here, on
// read-loop exit. With an IdleTimeout, a peer that stops sending even
// keep-alives is reaped and counted as a shed.
func (s *Server) pump(p *Peer) {
	idle := s.cfg.IdleTimeout
	for {
		if idle > 0 {
			_ = p.nc.SetReadDeadline(time.Now().Add(idle))
		}
		var lenBuf [4]byte
		if _, err := io.ReadFull(p.br, lenBuf[:]); err != nil {
			s.pumpExit(p, err)
			return
		}
		length := binary.BigEndian.Uint32(lenBuf[:])
		if length == 0 {
			s.inbox <- &inboxItem{peer: p, raw: &rawFrame{}}
			continue
		}
		if length > maxFrame {
			s.pumpExit(p, fmt.Errorf("frame too large: %d", length))
			return
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(p.br, body); err != nil {
			s.pumpExit(p, err)
			return
		}
		p.bytesIn.Add(uint64(length))
		s.inbox <- &inboxItem{peer: p, raw: &rawFrame{body: body}}
	}
}

// pumpExit retires the peer's conn and reports it dead. An idle-timeout
// reap (the peer was alive as far as we knew) is counted as a shed;
// remote closes and resets are ordinary departures.
func (s *Server) pumpExit(p *Peer, err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() && !p.closed.Load() {
		s.cp.CountShed("idle")
	}
	p.retire()
	s.inbox <- &inboxItem{peer: p, err: err}
}
