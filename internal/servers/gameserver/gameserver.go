// Package gameserver is the paper's heartbeat client/server application
// (§4.4): a multiplayer game of Tag over UDP. The server holds the shared
// game state, applies client moves, enforces the rules — players cannot
// leave the board; a tagged player becomes the new "it" and teleports to
// a random location — and broadcasts the full state to every player at
// 10 Hz heartbeats.
//
// Two Flux flows share the state under one atomicity constraint: the
// input flow (Receive -> ParsePacket -> ApplyMove) and the turn flow
// (Heartbeat -> ComputeState -> Broadcast), exactly the delay-sensitive
// structure the paper describes.
package gameserver

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lang/parser"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/telemetry"
)

// FluxSource is the game server's Flux program.
const FluxSource = `
// concrete node signatures
Receive () => (packet *pkt);
ParsePacket (packet *pkt) => (packet *pkt);
ApplyMove (packet *pkt) => ();
DropPacket (packet *pkt) => ();
Heartbeat () => (int tick);
ComputeState (int tick) => (int tick, snapshot *snap);
Broadcast (int tick, snapshot *snap) => ();

// input flow: client joins and moves
source Receive => Input;
Input = ParsePacket -> ApplyMove;

// turn flow: the 10 Hz heartbeat
source Heartbeat => Turn;
Turn = ComputeState -> Broadcast;

// malformed datagrams are dropped
handle error ParsePacket => DropPacket;

// both flows touch the shared game state
atomic ApplyMove:{state};
atomic ComputeState:{state};
`

// Message types of the wire protocol (all little-endian).
const (
	MsgJoin      = 1 // client -> server: {type}
	MsgMove      = 2 // client -> server: {type, id u32, dx i8, dy i8}
	MsgJoinAck   = 3 // server -> client: {type, id u32, w u16, h u16}
	MsgState     = 4 // server -> client: {type, tick u32, it u32, n u16, n x {id u32, x i16, y i16}}
	tagRadius    = 1
	maxMoveSpeed = 3
)

// Config tunes the server.
type Config struct {
	// Addr is the UDP listen address (default "127.0.0.1:0").
	Addr string
	// Width, Height bound the board (default 512x512).
	Width, Height int
	// Heartbeat is the turn interval (default 100ms — the paper's
	// 10 Hz).
	Heartbeat time.Duration
	// Seed drives teleport placement.
	Seed int64
	// Engine, PoolSize configure the runtime.
	Engine   runtime.EngineKind
	PoolSize int
	// Telemetry, when non-nil, is the server's observer: flow terminals
	// (moves and turns) by path, node latencies, and queue depths. The
	// game server has no TCP connection plane, so no admission counters
	// register.
	Telemetry *telemetry.Telemetry
}

type player struct {
	id   uint32
	x, y int16
	addr *net.UDPAddr
}

// packet is one received datagram.
type packet struct {
	data []byte
	addr *net.UDPAddr

	// parsed form
	kind   byte
	id     uint32
	dx, dy int8
}

// snapshot is a rendered state broadcast plus its recipients.
type snapshot struct {
	payload []byte
	addrs   []*net.UDPAddr
}

// Server is a runnable Flux game server.
type Server struct {
	cfg  Config
	prog *core.Program
	rt   *runtime.Server
	conn *net.UDPConn
	rng  *rand.Rand

	// Game state: guarded by the Flux "state" constraint, not a mutex —
	// that is the point of §2.5.
	players map[uint32]*player
	it      uint32
	nextID  uint32

	ticks     atomic.Uint64
	tickNanos atomic.Uint64 // cumulative state-computation time

	// broadcastPkts / broadcastErrs count per-recipient sends, a
	// diagnostic surfaced by BroadcastStats.
	broadcastPkts atomic.Uint64
	broadcastErrs atomic.Uint64

	stopOnce sync.Once
	stop     chan struct{}

	heartbeatTick runtime.SourceFunc
}

// New compiles the program and binds the UDP socket.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Width <= 0 {
		cfg.Width = 512
	}
	if cfg.Height <= 0 {
		cfg.Height = 512
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 100 * time.Millisecond
	}

	astProg, err := parser.Parse("gameserver.flux", FluxSource)
	if err != nil {
		return nil, fmt.Errorf("gameserver: parse: %w", err)
	}
	prog, err := core.Build(astProg)
	if err != nil {
		return nil, fmt.Errorf("gameserver: compile: %w", err)
	}

	udpAddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}

	s := &Server{
		cfg:           cfg,
		prog:          prog,
		conn:          conn,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		players:       make(map[uint32]*player),
		heartbeatTick: runtime.IntervalSource(cfg.Heartbeat),
	}

	b := runtime.NewBindings().
		BindSource("Receive", s.receive).
		BindSource("Heartbeat", s.heartbeat).
		BindNode("ParsePacket", s.parsePacket).
		BindNode("ApplyMove", s.applyMove).
		BindNode("DropPacket", func(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
			return nil, nil
		}).
		BindNode("ComputeState", s.computeState).
		BindNode("Broadcast", s.broadcast).
		MarkBlocking("Broadcast")

	rt, err := runtime.New(prog, b,
		runtime.WithEngine(cfg.Engine),
		runtime.WithPoolSize(cfg.PoolSize),
		runtime.WithObserver(cfg.Telemetry.Observer()),
	)
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.rt = rt
	return s, nil
}

// Addr returns the bound UDP address.
func (s *Server) Addr() string { return s.conn.LocalAddr().String() }

// Program exposes the compiled program.
func (s *Server) Program() *core.Program { return s.prog }

// Stats exposes runtime counters.
func (s *Server) Stats() *runtime.Stats { return s.rt.Stats() }

// TickStats reports completed turns and the mean state-computation time
// per turn (the delay-sensitive quantity of §4.4: how long the server
// takes to update the game state given all players' moves).
func (s *Server) TickStats() (turns uint64, meanTurn time.Duration) {
	n := s.ticks.Load()
	if n == 0 {
		return 0, 0
	}
	return n, time.Duration(s.tickNanos.Load() / n)
}

// Start launches the Flux runtime over the UDP socket; the server then
// serves until the context is cancelled or Shutdown is called.
func (s *Server) Start(ctx context.Context) error {
	if err := s.rt.Start(ctx); err != nil {
		return err
	}
	s.stop = make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-s.stop:
		}
		s.conn.Close()
	}()
	return nil
}

// Shutdown gracefully stops the server: the socket closes (unblocking
// the receive source), sources stop, and in-flight flows drain until
// their terminals or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.stop == nil {
		return runtime.ErrNotStarted
	}
	s.stopOnce.Do(func() { close(s.stop) })
	return s.rt.Shutdown(ctx)
}

// Wait blocks until the run ends and returns its error.
func (s *Server) Wait() error { return s.rt.Wait() }

// Run serves until the context is cancelled: Start followed by Wait.
func (s *Server) Run(ctx context.Context) error {
	if err := s.Start(ctx); err != nil {
		return err
	}
	return s.Wait()
}

// --- node implementations --------------------------------------------------

// receive blocks for one datagram. Start closes the socket on
// cancellation, which ends the read.
func (s *Server) receive(fl *runtime.Flow) (runtime.Record, error) {
	buf := make([]byte, 64)
	n, addr, err := s.conn.ReadFromUDP(buf)
	if err != nil {
		if fl.Ctx.Err() != nil {
			return nil, fl.Ctx.Err()
		}
		return nil, runtime.ErrStop // socket closed
	}
	return runtime.Record{&packet{data: buf[:n], addr: addr}}, nil
}

// heartbeat ticks at the configured rate.
func (s *Server) heartbeat(fl *runtime.Flow) (runtime.Record, error) {
	return s.heartbeatTick(fl)
}

// parsePacket validates and decodes a datagram; malformed input errors
// to DropPacket.
func (s *Server) parsePacket(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	p := in[0].(*packet)
	if len(p.data) < 1 {
		return nil, fmt.Errorf("gameserver: empty packet")
	}
	p.kind = p.data[0]
	switch p.kind {
	case MsgJoin:
		// no payload
	case MsgMove:
		if len(p.data) < 7 {
			return nil, fmt.Errorf("gameserver: short move packet (%d bytes)", len(p.data))
		}
		p.id = binary.LittleEndian.Uint32(p.data[1:5])
		p.dx = int8(p.data[5])
		p.dy = int8(p.data[6])
		if p.dx > maxMoveSpeed || p.dx < -maxMoveSpeed || p.dy > maxMoveSpeed || p.dy < -maxMoveSpeed {
			return nil, fmt.Errorf("gameserver: illegal move speed %d,%d", p.dx, p.dy)
		}
	default:
		return nil, fmt.Errorf("gameserver: unknown packet type %d", p.kind)
	}
	return in, nil
}

// applyMove mutates the shared state under the "state" constraint.
func (s *Server) applyMove(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	p := in[0].(*packet)
	switch p.kind {
	case MsgJoin:
		s.nextID++
		id := s.nextID
		pl := &player{
			id:   id,
			x:    int16(s.rng.Intn(s.cfg.Width)),
			y:    int16(s.rng.Intn(s.cfg.Height)),
			addr: p.addr,
		}
		s.players[id] = pl
		if len(s.players) == 1 {
			s.it = id // first player starts as "it"
		}
		ack := make([]byte, 9)
		ack[0] = MsgJoinAck
		binary.LittleEndian.PutUint32(ack[1:5], id)
		binary.LittleEndian.PutUint16(ack[5:7], uint16(s.cfg.Width))
		binary.LittleEndian.PutUint16(ack[7:9], uint16(s.cfg.Height))
		_, _ = s.conn.WriteToUDP(ack, p.addr)

	case MsgMove:
		pl, ok := s.players[p.id]
		if !ok {
			return nil, nil // stale id; ignore
		}
		// Boundary rule: players cannot move beyond the game world.
		pl.x = clamp(pl.x+int16(p.dx), 0, int16(s.cfg.Width-1))
		pl.y = clamp(pl.y+int16(p.dy), 0, int16(s.cfg.Height-1))
	}
	return nil, nil
}

func clamp(v, lo, hi int16) int16 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// computeState applies the tag rule and renders the broadcast, under the
// same "state" constraint as ApplyMove.
func (s *Server) computeState(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	start := time.Now()
	// Tag rule: if "it" is within tagRadius of another player, that
	// player becomes the new "it" and teleports to a random location.
	if it, ok := s.players[s.it]; ok {
		for id, pl := range s.players {
			if id == s.it {
				continue
			}
			dx, dy := int(pl.x)-int(it.x), int(pl.y)-int(it.y)
			if dx*dx+dy*dy <= tagRadius*tagRadius {
				s.it = id
				pl.x = int16(s.rng.Intn(s.cfg.Width))
				pl.y = int16(s.rng.Intn(s.cfg.Height))
				break
			}
		}
	}
	// Render the state packet.
	n := len(s.players)
	payload := make([]byte, 11+8*n)
	payload[0] = MsgState
	binary.LittleEndian.PutUint32(payload[1:5], uint32(in[0].(int)))
	binary.LittleEndian.PutUint32(payload[5:9], s.it)
	binary.LittleEndian.PutUint16(payload[9:11], uint16(n))
	addrs := make([]*net.UDPAddr, 0, n)
	off := 11
	for _, pl := range s.players {
		binary.LittleEndian.PutUint32(payload[off:off+4], pl.id)
		binary.LittleEndian.PutUint16(payload[off+4:off+6], uint16(pl.x))
		binary.LittleEndian.PutUint16(payload[off+6:off+8], uint16(pl.y))
		off += 8
		addrs = append(addrs, pl.addr)
	}
	s.tickNanos.Add(uint64(time.Since(start)))
	return runtime.Record{in[0], &snapshot{payload: payload, addrs: addrs}}, nil
}

// broadcast sends the snapshot to every player; it runs outside the
// state constraint (the snapshot is immutable), so input processing
// proceeds while packets drain.
func (s *Server) broadcast(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	snap := in[1].(*snapshot)
	for _, addr := range snap.addrs {
		if _, err := s.conn.WriteToUDP(snap.payload, addr); err != nil {
			s.broadcastErrs.Add(1)
		} else {
			s.broadcastPkts.Add(1)
		}
	}
	s.ticks.Add(1)
	return nil, nil
}

// BroadcastStats reports per-recipient state sends and send errors.
func (s *Server) BroadcastStats() (sent, errs uint64) {
	return s.broadcastPkts.Load(), s.broadcastErrs.Load()
}
