package loadgen

import (
	"bufio"
	"context"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// defaultMaxInFlight bounds the open-loop generator's concurrency when
// the config leaves it zero: enough to keep a saturated server busy,
// small enough that a melting server cannot balloon the harness into
// hundreds of thousands of parked goroutines.
const defaultMaxInFlight = 4096

// openLoopLoad drives a Poisson arrival process at cfg.OfferedRate
// requests/sec until ctx expires. This is open-loop load: the arrival
// schedule is computed up front from the exponential inter-arrival
// draw and never consults completions, so a slowing server faces the
// same offered rate — the condition under which an unbounded queue
// actually melts, and the condition the closed-loop modes can never
// produce (their clients wait for responses, throttling offered load
// to exactly the service rate).
//
// Each arrival is one independent single-request connection drawn from
// the SPECweb99-like mix. An arrival that finds MaxInFlight requests
// already outstanding is dropped at the generator and counted as a
// client-side shed — honest accounting for load the server never saw,
// and the bound that keeps the generator itself from melting.
func openLoopLoad(ctx context.Context, cfg WebClientConfig, rec *webRecorders) {
	maxInFlight := int64(cfg.MaxInFlight)
	if maxInFlight <= 0 {
		maxInFlight = defaultMaxInFlight
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sampler := NewMixSampler(cfg.Files, cfg.Seed+1, cfg.DynamicFraction, cfg.PostFraction)

	var inFlight atomic.Int64
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}

	// The absolute next-arrival time advances by exponential draws only:
	// when the pacer falls behind (a burst of short gaps, or scheduler
	// hiccups) arrivals fire back-to-back until the schedule catches up,
	// rather than resynchronizing to "now" — resync would silently erase
	// offered load exactly when the system is struggling. The run ends
	// with the last arrival scheduled before the deadline: ctx.Err()
	// turns non-nil only when the context's timer runs, after the
	// deadline, and an arrival in between would dial into a cut-off run.
	deadline, hasDeadline := ctx.Deadline()
	next := time.Now()
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / cfg.OfferedRate * float64(time.Second)))
		if hasDeadline && !next.Before(deadline) {
			wg.Wait()
			return
		}
		if wait := time.Until(next); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				wg.Wait()
				return
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			wg.Wait()
			return
		}

		// The arrival is stamped before it is counted, so one counted
		// before the warm-up reset is never recorded after it.
		at := time.Now()
		rec.offered.Add(1)
		if inFlight.Load() >= maxInFlight {
			rec.clientSheds.Add(1)
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		// The mix is drawn on the pacer goroutine (the sampler is not
		// concurrency-safe); the request itself runs detached so a slow
		// response never perturbs the arrival schedule.
		op := sampler.Next()
		go func(op WebOp) {
			defer wg.Done()
			defer inFlight.Add(-1)
			openLoopRequest(ctx, cfg, op, at, rec)
		}(op)
	}
}

// runOver reports whether the run has ended: the context is done, or
// its deadline has passed and its timer has not yet run.
func runOver(ctx context.Context) bool {
	deadline, ok := ctx.Deadline()
	return ctx.Err() != nil || ok && !time.Now().Before(deadline)
}

// openLoopRequest performs one arrival's conversation: dial, one
// request (announcing Connection: close), one response. A failure is
// an error only while the run lasts: a request the deadline cuts off,
// or one that starts after it, is the end of the run, not a server
// failure. An arrival at, from before the measurement window's start,
// belongs to the warm-up and is not recorded.
func openLoopRequest(ctx context.Context, cfg WebClientConfig, op WebOp, at time.Time, rec *webRecorders) {
	d := net.Dialer{Timeout: 2 * time.Second}
	start := time.Now()
	if runOver(ctx) {
		return
	}
	conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
	if err != nil {
		if !runOver(ctx) {
			rec.errs.Add(1)
		}
		return
	}
	defer conn.Close()
	// Bound the conversation by the run deadline plus slack: a wedged
	// server fails the request instead of hanging the harness.
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline.Add(2 * time.Second))
	}
	if err := writeOp(conn, op, true); err != nil {
		if !runOver(ctx) {
			rec.errs.Add(1)
		}
		return
	}
	n, status, _, err := readResponse(bufio.NewReader(conn))
	if err != nil {
		if !runOver(ctx) {
			rec.errs.Add(1)
		}
		return
	}
	if runOver(ctx) || at.UnixNano() < rec.winStart.Load() {
		return
	}
	if status == 503 {
		// Admission control shed this arrival: its own bucket, never an
		// error, never served latency. No backoff — open-loop arrivals
		// are independent by definition; the in-flight cap is what
		// bounds the generator.
		rec.sheds.Add(1)
		return
	}
	rec.record(op, time.Since(start), n)
}
