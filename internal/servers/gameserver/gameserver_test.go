package gameserver

import (
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/runtime"
)

func startServer(t *testing.T, cfg Config) (*Server, string, func()) {
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
		case <-time.After(10 * time.Second):
			t.Error("server did not stop")
		}
	}
	return s, s.Addr(), stop
}

// dial joins the game and returns the conn and assigned id.
func dial(t *testing.T, addr string) (*net.UDPConn, uint32) {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for attempt := 0; attempt < 10; attempt++ {
		if _, err := conn.Write([]byte{MsgJoin}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := conn.Read(buf)
		if err != nil {
			continue
		}
		if n >= 9 && buf[0] == MsgJoinAck {
			return conn, binary.LittleEndian.Uint32(buf[1:5])
		}
	}
	conn.Close()
	t.Fatal("join failed")
	return nil, 0
}

// readState waits for the next state broadcast.
func readState(t *testing.T, conn *net.UDPConn) (tick, it uint32, players map[uint32][2]int16) {
	t.Helper()
	buf := make([]byte, 64*1024)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := conn.Read(buf)
		if err != nil {
			continue
		}
		if n < 11 || buf[0] != MsgState {
			continue
		}
		tick = binary.LittleEndian.Uint32(buf[1:5])
		it = binary.LittleEndian.Uint32(buf[5:9])
		count := int(binary.LittleEndian.Uint16(buf[9:11]))
		players = make(map[uint32][2]int16, count)
		off := 11
		for i := 0; i < count && off+8 <= n; i++ {
			id := binary.LittleEndian.Uint32(buf[off : off+4])
			x := int16(binary.LittleEndian.Uint16(buf[off+4 : off+6]))
			y := int16(binary.LittleEndian.Uint16(buf[off+6 : off+8]))
			players[id] = [2]int16{x, y}
			off += 8
		}
		return tick, it, players
	}
	t.Fatal("no state broadcast received")
	return 0, 0, nil
}

func TestJoinAndBroadcast(t *testing.T) {
	_, addr, stop := startServer(t, Config{Heartbeat: 20 * time.Millisecond, Engine: runtime.ThreadPerFlow})
	defer stop()
	conn, id := dial(t, addr)
	defer conn.Close()
	_, it, players := readState(t, conn)
	if _, ok := players[id]; !ok {
		t.Errorf("player %d missing from state %v", id, players)
	}
	if it != id {
		t.Errorf("single player should be it: it=%d id=%d", it, id)
	}
}

func TestMovesApplied(t *testing.T) {
	_, addr, stop := startServer(t, Config{Heartbeat: 20 * time.Millisecond, Engine: runtime.ThreadPool, PoolSize: 4})
	defer stop()
	conn, id := dial(t, addr)
	defer conn.Close()

	_, _, before := readState(t, conn)
	start := before[id]

	// March east 10 times at +3.
	pkt := make([]byte, 7)
	pkt[0] = MsgMove
	binary.LittleEndian.PutUint32(pkt[1:5], id)
	pkt[5] = byte(int8(3))
	pkt[6] = 0
	for i := 0; i < 10; i++ {
		conn.Write(pkt)
		time.Sleep(2 * time.Millisecond)
	}
	// Allow a couple of heartbeats for the state to reflect the moves.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		_, _, players := readState(t, conn)
		if pos, ok := players[id]; ok && pos[0] > start[0] {
			return
		}
	}
	t.Error("moves never reflected in the broadcast state")
}

func TestBoundaryClamping(t *testing.T) {
	_, addr, stop := startServer(t, Config{
		Width: 32, Height: 32,
		Heartbeat: 10 * time.Millisecond,
		Engine:    runtime.ThreadPerFlow,
	})
	defer stop()
	conn, id := dial(t, addr)
	defer conn.Close()

	pkt := make([]byte, 7)
	pkt[0] = MsgMove
	binary.LittleEndian.PutUint32(pkt[1:5], id)
	pkt[5] = byte(int8(3))
	pkt[6] = byte(int8(3))
	for i := 0; i < 100; i++ {
		conn.Write(pkt)
	}
	time.Sleep(100 * time.Millisecond)
	_, _, players := readState(t, conn)
	pos := players[id]
	if pos[0] < 0 || pos[0] > 31 || pos[1] < 0 || pos[1] > 31 {
		t.Errorf("player escaped the board: %v", pos)
	}
}

func TestMalformedPacketsDropped(t *testing.T) {
	s, addr, stop := startServer(t, Config{Heartbeat: 50 * time.Millisecond, Engine: runtime.ThreadPerFlow})
	defer stop()
	raddr, _ := net.ResolveUDPAddr("udp", addr)
	conn, _ := net.DialUDP("udp", nil, raddr)
	defer conn.Close()
	conn.Write([]byte{99, 1, 2})                      // unknown type
	conn.Write([]byte{MsgMove, 1})                    // short move
	conn.Write([]byte{MsgMove, 1, 2, 3, 4, 120, 120}) // illegal speed
	// Give the server a moment to process.
	time.Sleep(100 * time.Millisecond)
	if s.Stats().Snapshot().Errored == 0 {
		t.Error("malformed packets did not take the error path")
	}
}

func TestTagTransfersIt(t *testing.T) {
	// Tiny board forces proximity quickly.
	_, addr, stop := startServer(t, Config{
		Width: 2, Height: 2,
		Heartbeat: 10 * time.Millisecond,
		Engine:    runtime.ThreadPool, PoolSize: 4,
	})
	defer stop()
	connA, idA := dial(t, addr)
	defer connA.Close()
	connB, idB := dial(t, addr)
	defer connB.Close()

	// On a 2x2 board with clamped random walks, the players must
	// eventually collide and transfer "it".
	pktA := make([]byte, 7)
	pktA[0] = MsgMove
	binary.LittleEndian.PutUint32(pktA[1:5], idA)
	pktB := make([]byte, 7)
	pktB[0] = MsgMove
	binary.LittleEndian.PutUint32(pktB[1:5], idB)

	deadline := time.Now().Add(5 * time.Second)
	var seenIts []uint32
	for time.Now().Before(deadline) {
		// Both players march to the same corner, guaranteeing a tag.
		pktA[5], pktA[6] = byte(int8(1)), byte(int8(1))
		pktB[5], pktB[6] = byte(int8(1)), byte(int8(1))
		connA.Write(pktA)
		connB.Write(pktB)
		_, it, _ := readState(t, connA)
		if len(seenIts) == 0 || seenIts[len(seenIts)-1] != it {
			seenIts = append(seenIts, it)
		}
		if len(seenIts) >= 2 {
			return // "it" changed hands at least once
		}
	}
	t.Errorf("it never transferred; seen %v", seenIts)
}

func TestHeartbeatCadence(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s, addr, stop := startServer(t, Config{Heartbeat: 25 * time.Millisecond, Engine: runtime.ThreadPerFlow})
	defer stop()

	res := loadgen.RunGameLoad(context.Background(), loadgen.GameClientConfig{
		Addr:     addr,
		Players:  4,
		MoveHz:   40,
		Duration: 700 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Seed:     3,
	})
	if res.JoinFailures > 0 {
		t.Fatalf("join failures: %d", res.JoinFailures)
	}
	if res.StatesReceived == 0 || res.MovesSent == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
	// Mean inter-arrival should track the heartbeat (generous bounds
	// for CI noise).
	if res.InterArrival.Count > 0 {
		mean := res.InterArrival.Mean
		if mean < 10*time.Millisecond || mean > 80*time.Millisecond {
			t.Errorf("state inter-arrival mean = %v, want ~25ms", mean)
		}
	}
	turns, meanTurn := s.TickStats()
	if turns == 0 {
		t.Error("no turns recorded")
	}
	if meanTurn > 25*time.Millisecond {
		t.Errorf("mean turn compute = %v exceeds heartbeat", meanTurn)
	}
}

// TestEventEngineBroadcastsUnderLoad is the regression test for the
// heartbeat-starvation bug: under a steady stream of client moves, the
// event engine's turn flow must keep acquiring the state constraint
// (fair lock grants) and clients must keep receiving broadcasts.
func TestEventEngineBroadcastsUnderLoad(t *testing.T) {
	s, addr, stop := startServer(t, Config{
		Heartbeat: 50 * time.Millisecond,
		Engine:    runtime.EventDriven,
	})
	defer stop()

	res := loadgen.RunGameLoad(context.Background(), loadgen.GameClientConfig{
		Addr: addr, Players: 8, MoveHz: 20,
		Duration: 1200 * time.Millisecond, Warmup: 200 * time.Millisecond, Seed: 8,
	})
	if res.JoinFailures > 0 {
		t.Fatalf("join failures: %d", res.JoinFailures)
	}
	if res.StatesReceived == 0 {
		t.Fatal("clients received no state broadcasts (heartbeat starved)")
	}
	sent, errs := s.BroadcastStats()
	if sent == 0 {
		t.Fatalf("no broadcast packets sent (errs=%d)", errs)
	}
	turns, _ := s.TickStats()
	// 1.2s at 50ms per turn is ~24 turns; demand at least a third.
	if turns < 8 {
		t.Errorf("turns = %d, want >= 8", turns)
	}
}
