package runtime

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStealEngineNoStrandedFlows: flows contending on one writer
// constraint across several dispatchers. Lock grants resume onto the
// releasing dispatcher's deque while the other dispatchers park; if the
// parker/wakeup protocol loses a wakeup — or a continuation lands in a
// deque nobody ever drains — the run wedges instead of completing.
func TestStealEngineNoStrandedFlows(t *testing.T) {
	p := compileSrc(t, `
Gen () => (int v);
Crit (int v) => (int v);
Sink (int v) => ();
source Gen => F;
F = Crit -> Sink;
atomic Crit:{state};
`)
	const total = 400
	var sunk atomic.Int64
	b := NewBindings().
		BindSource("Gen", counterSource(total)).
		BindNode("Crit", func(fl *Flow, in Record) (Record, error) { return in, nil }).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
			sunk.Add(1)
			return nil, nil
		})
	s, err := NewServer(p, b, Config{Kind: WorkStealing, Dispatchers: 4})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Run(context.Background()) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("run wedged: %d/%d flows completed (stranded work or lost wakeup)",
			sunk.Load(), total)
	}
	if got := s.Stats().Snapshot().Completed; got != total {
		t.Fatalf("completed = %d, want %d", got, total)
	}
}

// TestStealEngineInjectWhileParked: bursts of external admissions with
// idle gaps long enough for every dispatcher to park. Each burst must
// be drained from the injection queue by an unparked dispatcher; a lost
// wakeup would strand the burst until Shutdown's nudge, failing the
// count below.
func TestStealEngineInjectWhileParked(t *testing.T) {
	p := compileSrc(t, `
Gen () => (int v);
Double (int v) => (int v);
Sink (int v) => ();
source Gen => Flow;
Flow = Double -> Sink;
`)
	var sunk atomic.Int64
	got := make(chan int, 64)
	b := NewBindings().
		BindSource("Gen", counterSource(0)). // immediately exhausted
		BindNode("Double", func(fl *Flow, in Record) (Record, error) { return in, nil }).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
			sunk.Add(1)
			got <- in[0].(int)
			return nil, nil
		})
	s, err := NewServer(p, b, Config{Kind: WorkStealing, Dispatchers: 4, KeepAlive: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	next := 0
	for burst := 0; burst < 5; burst++ {
		// Give every dispatcher time to go idle and park.
		time.Sleep(20 * time.Millisecond)
		for i := 0; i < 10; i++ {
			next++
			if err := s.Inject("Gen", Record{next}); err != nil {
				t.Fatalf("Inject(%d): %v", next, err)
			}
		}
		// The burst must complete promptly — unparked by the injection,
		// not rescued later by Shutdown.
		deadline := time.After(5 * time.Second)
		for drained := 0; drained < 10; drained++ {
			select {
			case <-got:
			case <-deadline:
				t.Fatalf("burst %d stranded: %d/%d flows done", burst, drained, 10)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if sunk.Load() != int64(next) {
		t.Fatalf("sink saw %d of %d injected flows", sunk.Load(), next)
	}
}

// TestStealEngineSourcesShareOneDispatcher: two always-ready sources on
// a one-dispatcher engine must both make progress. Each runs on a
// goroutine of its own, so neither can hold the other's admission.
func TestStealEngineSourcesShareOneDispatcher(t *testing.T) {
	p := compileSrc(t, `
GenA () => (int v);
GenB () => (int v);
Apply (int v) => ();
Turn (int v) => ();
source GenA => FA;
FA = Apply;
source GenB => FB;
FB = Turn;
`)
	var a, bn atomic.Int64
	busy := func(counter *atomic.Int64) SourceFunc {
		return func(fl *Flow) (Record, error) {
			if fl.Ctx.Err() != nil {
				return nil, fl.Ctx.Err()
			}
			counter.Add(1)
			return Record{1}, nil
		}
	}
	b := NewBindings().
		BindSource("GenA", busy(&a)).
		BindSource("GenB", busy(&bn)).
		BindNode("Apply", nopNode).
		BindNode("Turn", nopNode)
	s, err := NewServer(p, b, Config{Kind: WorkStealing, Dispatchers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_ = s.Run(ctx)
	t.Logf("polls: GenA=%d GenB=%d", a.Load(), bn.Load())
	if a.Load() == 0 || bn.Load() == 0 {
		t.Errorf("source starved on shared dispatcher: GenA=%d GenB=%d", a.Load(), bn.Load())
	}
}

// TestStealEngineInjectNotStarvedByBusyDeques: with every dispatcher's
// local deque continuously non-empty, injected flows must still complete
// promptly — the periodic injection-queue check is what keeps external
// admissions from starving behind local work. The pressure is two lock
// chains: two pairs of busy sources keep up to 64 flows per pair
// contending on the pair's constraint, and every release a dispatcher
// performs lands the next waiter's grant on that dispatcher's deque.
func TestStealEngineInjectNotStarvedByBusyDeques(t *testing.T) {
	p := compileSrc(t, `
BusyA1 () => (int v);
BusyA2 () => (int v);
BusyB1 () => (int v);
BusyB2 () => (int v);
CritA (int v) => ();
CritB (int v) => ();
Ext () => (int v);
Apply (int v) => ();
source BusyA1 => FA1;
FA1 = CritA;
source BusyA2 => FA2;
FA2 = CritA;
source BusyB1 => FB1;
FB1 = CritB;
source BusyB2 => FB2;
FB2 = CritB;
source Ext => Outside;
Outside = Apply;
atomic CritA:{a};
atomic CritB:{b};
`)
	var injected atomic.Int64
	busy := func() (SourceFunc, NodeFunc) {
		sem := make(chan struct{}, 64)
		src := func(fl *Flow) (Record, error) {
			select {
			case sem <- struct{}{}:
				return Record{0}, nil
			case <-fl.Ctx.Done():
				return nil, fl.Ctx.Err()
			}
		}
		crit := func(fl *Flow, in Record) (Record, error) {
			<-sem
			return nil, nil
		}
		return src, crit
	}
	srcA, critA := busy()
	srcB, critB := busy()
	b := NewBindings().
		BindSource("BusyA1", srcA).
		BindSource("BusyA2", srcA).
		BindSource("BusyB1", srcB).
		BindSource("BusyB2", srcB).
		BindNode("CritA", critA).
		BindNode("CritB", critB).
		BindSource("Ext", func(fl *Flow) (Record, error) { return nil, ErrStop }).
		BindNode("Apply", func(fl *Flow, in Record) (Record, error) {
			injected.Add(1)
			return nil, nil
		})
	s, err := NewServer(p, b, Config{Kind: WorkStealing, Dispatchers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	e := s.engine.(*stealEngine)
	// The pressure must be real: wait until the lock chains keep local
	// deques busy before injecting.
	queued := func() bool {
		for _, d := range e.disp {
			if d.dq.len() > 0 {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	seen := queued()
	for !seen && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
		seen = queued()
	}
	if !seen {
		t.Fatal("busy sources never put work on a dispatcher deque")
	}
	const n = 30
	for i := 1; i <= n; i++ {
		if err := s.Inject("Ext", Record{i}); err != nil {
			t.Fatalf("Inject(%d): %v", i, err)
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for injected.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got := injected.Load()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got < n {
		t.Errorf("only %d/%d injected flows ran while sources stayed busy", got, n)
	}
}

// TestBlockingSourceHoldsNoDispatcher: a source that blocks until
// cancellation, as every source may, must hold no dispatcher or worker
// while it waits — on every engine, and on the event engine's lone
// dispatcher in particular. Injected flows all complete meanwhile, and
// cancellation ends the wait so Shutdown returns within its deadline.
func TestBlockingSourceHoldsNoDispatcher(t *testing.T) {
	for _, kind := range allEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			p := compileSrc(t, pipelineSrc)
			var sunk atomic.Int64
			b := NewBindings().
				BindSource("Gen", func(fl *Flow) (Record, error) {
					<-fl.Ctx.Done()
					return nil, fl.Ctx.Err()
				}).
				BindNode("Double", nopNode).
				BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
					sunk.Add(1)
					return nil, nil
				})
			cfg := Config{Kind: kind, PoolSize: 2}
			if kind == EventDriven {
				cfg.Dispatchers = 1
			}
			s, err := NewServer(p, b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h, err := s.Source("Gen")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			const n = 1000
			for i := 0; i < n; i++ {
				if err := h.Inject(Record{i}); err != nil {
					t.Fatalf("Inject(%d): %v", i, err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for sunk.Load() < n && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			got := sunk.Load()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if got < n {
				t.Errorf("%d/%d injected flows ran while the source blocked", got, n)
			}
		})
	}
}

// TestStealEngineTimerNotStarvedByBusySource: the one-dispatcher
// fairness property must hold across per-dispatcher deques too — a
// saturating source on one dispatcher cannot starve an interval source
// homed on another.
func TestStealEngineTimerNotStarvedByBusySource(t *testing.T) {
	p := compileSrc(t, `
Busy () => (int v);
Apply (int v) => ();
Tick () => (int v);
Turn (int v) => ();
source Busy => Input;
Input = Apply;
source Tick => Beat;
Beat = Turn;
atomic Apply:{state};
atomic Turn:{state};
`)
	var turns, applies atomic.Int64
	interval := IntervalSource(50 * time.Millisecond)
	b := NewBindings().
		BindSource("Busy", func(fl *Flow) (Record, error) {
			if fl.Ctx.Err() != nil {
				return nil, fl.Ctx.Err()
			}
			return Record{1}, nil
		}).
		BindSource("Tick", interval).
		BindNode("Apply", func(fl *Flow, in Record) (Record, error) {
			applies.Add(1)
			return nil, nil
		}).
		BindNode("Turn", func(fl *Flow, in Record) (Record, error) {
			turns.Add(1)
			return nil, nil
		})
	s, err := NewServer(p, b, Config{Kind: WorkStealing, Dispatchers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s.Run(ctx)

	t.Logf("turns=%d applies=%d", turns.Load(), applies.Load())
	if turns.Load() < 10 {
		t.Errorf("interval flow starved: %d turns in 1s, want ~20", turns.Load())
	}
	if applies.Load() == 0 {
		t.Error("busy source made no progress")
	}
}

// TestEventEngineTimerNotStarvedByBusySource reproduces the game
// server's shape: a busy source producing flows that contend on a
// constraint, plus a 100ms interval source. The interval flow must keep
// firing at roughly its rate; a fair dispatcher cannot let the busy
// source starve it.
func TestEventEngineTimerNotStarvedByBusySource(t *testing.T) {
	p := compileSrc(t, `
Busy () => (int v);
Apply (int v) => ();
Tick () => (int v);
Turn (int v) => ();
source Busy => Input;
Input = Apply;
source Tick => Beat;
Beat = Turn;
atomic Apply:{state};
atomic Turn:{state};
`)
	var turns, applies, polls atomic.Int64
	interval := IntervalSource(50 * time.Millisecond)
	b := NewBindings().
		BindSource("Busy", func(fl *Flow) (Record, error) {
			// A datagram is "always available": the source never
			// blocks, like a UDP socket under continuous load.
			if fl.Ctx.Err() != nil {
				return nil, fl.Ctx.Err()
			}
			return Record{1}, nil
		}).
		BindSource("Tick", func(fl *Flow) (Record, error) {
			polls.Add(1)
			return interval(fl)
		}).
		BindNode("Apply", func(fl *Flow, in Record) (Record, error) {
			applies.Add(1)
			return nil, nil
		}).
		BindNode("Turn", func(fl *Flow, in Record) (Record, error) {
			turns.Add(1)
			return nil, nil
		})
	s, err := NewServer(p, b, Config{Kind: EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s.Run(ctx)

	t.Logf("turns=%d applies=%d timer polls=%d", turns.Load(), applies.Load(), polls.Load())
	// One second at 50ms per turn is ~20 turns; demand at least half.
	if turns.Load() < 10 {
		t.Errorf("interval flow starved: %d turns in 1s, want ~20", turns.Load())
	}
	if applies.Load() == 0 {
		t.Error("busy source made no progress")
	}
}

// TestEventEngineTimerWithUDPSource replicates the game server's exact
// structure: a blocking UDP read source plus an interval source, under a
// packet stream. This is the integration shape where heartbeat
// starvation was observed. The read honors fl.Ctx the way the game
// server's does: cancellation closes the socket.
func TestEventEngineTimerWithUDPSource(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	p := compileSrc(t, `
Recv () => (int v);
Apply (int v) => ();
Tick () => (int v);
Turn (int v) => ();
source Recv => Input;
Input = Apply;
source Tick => Beat;
Beat = Turn;
atomic Apply:{state};
atomic Turn:{state};
`)
	var turns, applies atomic.Int64
	interval := IntervalSource(50 * time.Millisecond)
	var closeOnCancel sync.Once
	b := NewBindings().
		BindSource("Recv", func(fl *Flow) (Record, error) {
			closeOnCancel.Do(func() {
				context.AfterFunc(fl.Ctx, func() { conn.Close() })
			})
			buf := make([]byte, 64)
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				if fl.Ctx.Err() != nil {
					return nil, fl.Ctx.Err()
				}
				return nil, ErrStop
			}
			return Record{n}, nil
		}).
		BindSource("Tick", interval).
		BindNode("Apply", func(fl *Flow, in Record) (Record, error) {
			applies.Add(1)
			return nil, nil
		}).
		BindNode("Turn", func(fl *Flow, in Record) (Record, error) {
			turns.Add(1)
			return nil, nil
		})
	s, err := NewServer(p, b, Config{Kind: EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	// Client: 80 packets/sec at the server.
	go func() {
		cl, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
		if err != nil {
			return
		}
		defer cl.Close()
		tick := time.NewTicker(12 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				cl.Write([]byte{2, 0, 0, 0, 0, 1, 1})
			}
		}
	}()

	_ = s.Run(ctx)
	t.Logf("turns=%d applies=%d", turns.Load(), applies.Load())
	if turns.Load() < 10 {
		t.Errorf("interval flow starved: %d turns in 1s, want ~20", turns.Load())
	}
	if applies.Load() < 40 {
		t.Errorf("udp flows = %d, want ~80", applies.Load())
	}
}
