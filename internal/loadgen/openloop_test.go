package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopOfferedRate: the Poisson process must offer load at the
// configured rate (independent of service time), and the accounting
// must balance: every arrival is either served, shed somewhere, errored,
// or still in flight at the cutoff.
func TestOpenLoopOfferedRate(t *testing.T) {
	srv := startStubWebServer(t, 0)
	files := NewFileSet(1)
	const rate = 2000.0
	res := RunWebLoad(context.Background(), WebClientConfig{
		Addr:        srv.ln.Addr().String(),
		Files:       files,
		OfferedRate: rate,
		Duration:    500 * time.Millisecond,
		Seed:        11,
	})
	if res.Offered == 0 {
		t.Fatal("no arrivals generated")
	}
	// A stray error from a run-deadline race is tolerable; a systematic
	// failure mode is not.
	if res.Errors > res.Offered/100 {
		t.Errorf("errors = %d of %d offered", res.Errors, res.Offered)
	}
	// The measured offered rate tracks the configured one (generous
	// tolerance: Poisson variance plus CI scheduling noise).
	if res.OfferedRate < 0.6*rate || res.OfferedRate > 1.4*rate {
		t.Errorf("offered rate %.0f/s, want ~%.0f/s", res.OfferedRate, rate)
	}
	if res.Requests == 0 || res.Goodput == 0 {
		t.Fatalf("nothing served: %+v", res)
	}
	if res.AcceptedRate < res.Goodput {
		t.Errorf("accepted %.0f/s < goodput %.0f/s", res.AcceptedRate, res.Goodput)
	}
	// Arrivals can exceed completions (in-flight at cutoff) but never
	// the other way around.
	if res.Offered < res.Requests+res.Sheds+res.ClientSheds {
		t.Errorf("accounting: offered %d < served %d + sheds %d + clientsheds %d",
			res.Offered, res.Requests, res.Sheds, res.ClientSheds)
	}
}

// TestOpenLoopNoErrorsUnderCapacity: well under a server's capacity,
// an open-loop run counts no errors. Every arrival is scheduled before
// the run's deadline, and a request the deadline cuts off is the end of
// the run, not a failure; many short runs make the deadline race
// frequent.
func TestOpenLoopNoErrorsUnderCapacity(t *testing.T) {
	srv := startStubWebServer(t, 0)
	files := NewFileSet(1)
	for seed := int64(0); seed < 20; seed++ {
		res := RunWebLoad(context.Background(), WebClientConfig{
			Addr:        srv.ln.Addr().String(),
			Files:       files,
			OfferedRate: 2000,
			Duration:    50 * time.Millisecond,
			Seed:        100 + seed,
		})
		if res.Requests == 0 {
			t.Fatalf("run %d served nothing: %+v", seed, res)
		}
		if res.Errors != 0 {
			t.Errorf("run %d: %d errors of %d offered", seed, res.Errors, res.Offered)
		}
	}
}

// TestOpenLoopInFlightCap: against a server that accepts and never
// responds, the generator must hold exactly MaxInFlight requests open
// and shed every further arrival client-side — the generator cannot be
// melted by the server it is measuring.
func TestOpenLoopInFlightCap(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	var held []net.Conn
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c) // never answered
			mu.Unlock()
		}
	}()

	files := NewFileSet(1)
	const cap = 8
	res := RunWebLoad(context.Background(), WebClientConfig{
		Addr:        ln.Addr().String(),
		Files:       files,
		OfferedRate: 2000,
		MaxInFlight: cap,
		Duration:    200 * time.Millisecond,
		Seed:        12,
	})
	if res.Offered < 100 {
		t.Fatalf("offered only %d arrivals", res.Offered)
	}
	if res.Requests != 0 {
		t.Errorf("served %d from a mute server", res.Requests)
	}
	// The first cap arrivals occupy the in-flight slots forever; every
	// later arrival must shed at the generator.
	if want := res.Offered - cap; res.ClientSheds != want {
		t.Errorf("client sheds = %d, want %d (offered %d − cap %d)",
			res.ClientSheds, want, res.Offered, cap)
	}
}

// TestOpenLoopGoodputHonesty: a server shedding everything with 503s
// must report accepted load but zero goodput — the split that keeps a
// shedding server from ever being read as "fast".
func TestOpenLoopGoodputHonesty(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if strings.TrimSpace(line) == "" { // end of headers
						fmt.Fprintf(conn, "HTTP/1.1 503 Service Unavailable\r\n"+
							"Content-Length: 0\r\nConnection: close\r\n\r\n")
						return
					}
				}
			}(conn)
		}
	}()

	files := NewFileSet(1)
	res := RunWebLoad(context.Background(), WebClientConfig{
		Addr:        ln.Addr().String(),
		Files:       files,
		OfferedRate: 1000,
		Duration:    300 * time.Millisecond,
		Seed:        13,
	})
	if res.Sheds == 0 {
		t.Fatal("no 503s recorded")
	}
	if res.Requests != 0 || res.Goodput != 0 {
		t.Errorf("an all-shedding server reported goodput: %+v", res)
	}
	if res.AcceptedRate == 0 {
		t.Error("accepted rate 0 despite answered 503s")
	}
	// If 503s were being charged as errors, Errors would track Sheds;
	// a stray deadline-race error must not fail the run.
	if res.Errors > res.Sheds/10 {
		t.Errorf("503s charged as errors: %d errors vs %d sheds", res.Errors, res.Sheds)
	}
}
