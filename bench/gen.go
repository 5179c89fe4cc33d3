package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
)

var epoch = time.Now()

// nowNs reads the monotonic clock as nanoseconds since process start.
func nowNs() int64 { return int64(time.Since(epoch)) }

// runOpts is the shape of one run.
type runOpts struct {
	seed      int64
	outDir    string
	windows   int // measured windows of windowLength each
	warmOps   int // per connection, before the first window
	setups    int // set-ups per run; setup_s is their median
	replayOps int // ops of the tape the traced layer replay covers
	// sampleEvery compares every n-th response body in full; status and
	// Content-Length are checked on all of them.
	sampleEvery int
	// corruptExpected spoils one expected body, for the test that a wrong
	// response fails the run.
	corruptExpected bool
}

// plan is the measured period: back-to-back windows from start.
type plan struct {
	start, winLen int64
	windows       int
}

func (p *plan) end() int64 { return p.start + p.winLen*int64(p.windows) }

// window attributes an instant to a window; the one request per
// connection that is in flight at the end counts in the last.
func (p *plan) window(t int64) int {
	return min(max(int((t-p.start)/p.winLen), 0), p.windows-1)
}

// winStats is what one connection saw in one window.
type winStats struct {
	attempted, ok, bytes uint64
	fails                [numFailKinds]uint64
	lat                  []uint32 // ns, verified responses only
	late                 []uint32 // ns, openLoop: send time minus the later of due time and connection free
}

func clampU32(ns int64) uint32 {
	return uint32(min(max(ns, 0), math.MaxUint32))
}

// genConn is one generator connection and the goroutine that drives it.
type genConn struct {
	w           *workload
	cl          *client
	tape        []op
	pos         int
	seq         int // requests issued; selects the body-comparison sample
	sampleEvery int
	win         []winStats

	// responses counts non-503 responses read over the connection's whole
	// life and teardowns the connections this side closed while the
	// server waited for a request: what the server's flow counters must
	// add up to.
	responses, teardowns uint64

	// warmFails counts the warm-up requests that failed; they are in no
	// window, but a harness that loses a request there is just as wrong.
	// firstFail describes the connection's first failure of either kind.
	warmFails uint64
	firstFail string
}

// account books one attempt into the window its completion falls in;
// warm-up requests (p nil) are not booked.
func (g *genConn) account(p *plan, t1, start int64, n int, fail failKind, ok bool) {
	if p == nil {
		if !ok {
			g.warmFails++
		}
		return
	}
	ws := &g.win[p.window(t1)]
	ws.attempted++
	if !ok {
		ws.fails[fail]++
		return
	}
	ws.ok++
	ws.bytes += uint64(n)
	ws.lat = append(ws.lat, clampU32(t1-start))
}

// connect opens the connection if there is none. A refused dial is a
// failed attempt; the pause keeps a dead server from being hammered.
func (g *genConn) connect(p *plan) bool {
	if g.cl.connected() {
		return true
	}
	if err := g.cl.dial(); err != nil {
		g.account(p, nowNs(), 0, 0, failIO, false)
		time.Sleep(10 * time.Millisecond)
		return false
	}
	return true
}

// exchange sends the next op of the tape on the open connection; latency
// counts from start.
func (g *genConn) exchange(p *plan, start int64) *op {
	o := &g.tape[g.pos]
	g.pos = (g.pos + 1) % len(g.tape)
	check := g.seq%g.sampleEvery == 0
	g.seq++
	n, srvClose, fail, ok, err := g.cl.roundTrip(o, check)
	g.account(p, nowNs(), start, n, fail, ok)
	if !ok && g.firstFail == "" {
		g.firstFail = fmt.Sprintf("request %d (%s): %s", g.seq, bytes.TrimSpace(o.req[:bytes.IndexByte(o.req, '\r')]), failKindNames[fail])
		if err != nil {
			g.firstFail += ": " + err.Error()
		}
	}
	switch {
	case err != nil:
		g.teardowns++
		g.cl.close()
	case fail == failShed:
		g.cl.close()
	default:
		g.responses++
		if srvClose {
			if g.w.loop == closedFresh {
				g.cl.awaitEOF()
			}
			g.cl.close()
		}
	}
	return o
}

// warmUp runs n requests back to back whatever the workload's pacing:
// caches fill and pools prime, and nothing is recorded.
func (g *genConn) warmUp(n int) {
	for i := 0; i < n; i++ {
		if g.connect(nil) {
			g.exchange(nil, 0)
		}
	}
}

// measure drives the connection through the plan.
func (g *genConn) measure(p *plan) {
	end := p.end()
	switch g.w.loop {
	case closedKeepAlive:
		for {
			// The reconnect the server's keep-alive cap forces every 100
			// requests stays out of the latency sample: it would sit
			// exactly on the 99th percentile.
			if !g.connect(p) {
				if nowNs() >= end {
					return
				}
				continue
			}
			t0 := nowNs()
			if t0 >= end {
				return
			}
			g.exchange(p, t0)
		}
	case closedFresh:
		for {
			t0 := nowNs()
			if t0 >= end {
				return
			}
			if g.connect(p) {
				g.exchange(p, t0)
			}
		}
	case openLoop:
		lowerTimerSlack()
		due := p.start + g.tape[g.pos].gapNs
		for due < end {
			g.connect(p) // reconnects ahead of the due time; a failure shows as a failed attempt and as latency
			// Without pipelining a request cannot leave before the previous
			// response is in, however long ago it was due. That wait is the
			// server's and counts in the latency (timed from due); the
			// generator's own lateness counts from whichever came last.
			ready := max(due, nowNs())
			preciseSleepUntil(due)
			if !g.cl.connected() && !g.connect(p) {
				due += g.tape[g.pos].gapNs
				continue
			}
			ws := &g.win[p.window(due)]
			ws.late = append(ws.late, clampU32(nowNs()-ready))
			due += g.exchange(p, due).gapNs
		}
	}
}

// driveOnProcessor gives the calling goroutine, about to drive connection
// i, a thread of its own on one processor. The thread is needed because
// the client's socket is blocking. The pinning is for steadiness:
// unpinned, the kernel keeps moving the generator's threads and the
// server's around each other and throughput wanders by a tenth. The
// goroutine must exit without unlocking, which ends the pinned thread
// instead of handing it back to the runtime.
func driveOnProcessor(i int) {
	runtime.LockOSThread()
	pinToCPU(i % runtime.NumCPU())
}

// session is one set-up of one workload: a live server child and warmed
// connections, ready to be measured.
type session struct {
	w      *workload
	o      runOpts
	tmp    string
	child  *child
	conns  []*genConn
	setupS float64
}

// setUp starts the server child and, while it boots, renders the corpus,
// the oracle and the tapes; then it warms every connection. Its duration
// is the setup_s metric: child start to first measured request.
func setUp(w *workload, o runOpts) (*session, error) {
	t0 := time.Now()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.outDir, "srv-")
	if err != nil {
		return nil, err
	}
	s := &session{w: w, o: o, tmp: tmp}
	if s.child, err = startChild(w, tmp); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	fail := func(err error) (*session, error) {
		s.child.kill()
		os.RemoveAll(tmp)
		return nil, err
	}

	tapes, err := buildTapes(w, o.seed)
	if err != nil {
		return fail(err)
	}
	if o.corruptExpected {
		// The tape's last op: the quick warm-up stops short of it, so the
		// wrong body is met in a measured window.
		last := &tapes[0][tapeLen-1]
		spoiled := slices.Clone(last.body)
		spoiled[0] ^= 0xff
		last.body = spoiled
	}
	if err := s.child.awaitHello(); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}

	var wg sync.WaitGroup
	for i, tape := range tapes {
		cl, err := newClient(s.child.hello.Addr)
		if err != nil {
			return fail(err)
		}
		g := &genConn{
			w: w, cl: cl, tape: tape,
			sampleEvery: o.sampleEvery, win: make([]winStats, o.windows),
		}
		// Room for 150k requests a second over all connections; beyond
		// that append grows the slice.
		room := int(windowLength.Seconds()*150_000)/len(tapes) + 1024
		for i := range g.win {
			g.win[i].lat = make([]uint32, 0, room)
			if w.loop == openLoop {
				g.win[i].late = make([]uint32, 0, room)
			}
		}
		s.conns = append(s.conns, g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			driveOnProcessor(i)
			g.warmUp(o.warmOps)
		}()
	}
	wg.Wait()
	s.setupS = time.Since(t0).Seconds()
	return s, nil
}

// warmFails counts the warm-up requests the set-up lost and describes the
// first.
func (s *session) warmFails() (n uint64, first string) {
	for _, g := range s.conns {
		n += g.warmFails
		if first == "" {
			first = g.firstFail
		}
	}
	return n, first
}

// buildTapes renders one tape per connection from the seed.
func buildTapes(w *workload, seed int64) ([][]op, error) {
	files := loadgen.NewFileSet(w.dirs)
	or, err := newOracle()
	if err != nil {
		return nil, err
	}
	conns := numConns()
	tapes := make([][]op, conns)
	for c := range tapes {
		if tapes[c], err = buildTape(w, files, or, seed, c, conns); err != nil {
			return nil, err
		}
	}
	return tapes, nil
}

// measurement is the raw material of one workload's metrics.
type measurement struct {
	plan         plan
	reports      []childReport // at each window boundary, first and last included
	before       childReport   // full, just before the first window
	after        childReport   // full, once every connection finished
	final        childReport   // full, after shutdown
	genCPUUs     int64
	livePeak     int64
	responses    uint64
	teardowns    uint64
	portsRanOut  bool
	childStopErr error
}

func selfCPUUs() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return tvMicros(ru.Utime) + tvMicros(ru.Stime)
}

// measure runs the windows back to back, reading the child's processor
// time at every boundary, and then stops the session.
func (s *session) measure() (*measurement, error) {
	m := &measurement{}
	var err error
	if m.before, err = s.child.ask("full"); err != nil {
		s.abort()
		return nil, err
	}
	gen0 := selfCPUUs()
	m.plan = plan{start: nowNs() + int64(2*time.Millisecond), winLen: int64(windowLength), windows: s.o.windows}

	var wg sync.WaitGroup
	for i, g := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			driveOnProcessor(i)
			preciseSleepUntil(m.plan.start)
			g.measure(&m.plan)
		}()
	}
	m.reports = append(m.reports, m.before)
	for k := 1; k <= s.o.windows; k++ {
		preciseSleepUntil(m.plan.start + int64(k)*m.plan.winLen)
		rep, err := s.child.ask("snap")
		if err != nil {
			wg.Wait()
			s.abort()
			return nil, err
		}
		m.reports = append(m.reports, rep)
	}
	wg.Wait()
	m.genCPUUs = selfCPUUs() - gen0
	if m.after, err = s.child.ask("full"); err != nil {
		s.abort()
		return nil, err
	}
	for _, rep := range append(m.reports, m.after) {
		m.livePeak = max(m.livePeak, rep.Live)
	}
	m.final, m.childStopErr = s.stop()
	for _, g := range s.conns {
		m.responses += g.responses
		m.teardowns += g.teardowns
		m.portsRanOut = m.portsRanOut || g.cl.portsExhausted
	}
	return m, nil
}

// stop closes the connections and shuts the child down.
func (s *session) stop() (childReport, error) {
	for _, g := range s.conns {
		if g.cl.connected() {
			g.teardowns++
			g.cl.close()
		}
	}
	rep, err := s.child.stop()
	os.RemoveAll(s.tmp)
	return rep, err
}

// abort tears a broken session down.
func (s *session) abort() {
	for _, g := range s.conns {
		g.cl.close()
	}
	s.child.kill()
	os.RemoveAll(s.tmp)
}

// merged returns window k's samples over all connections, sorted.
func merged(conns []*genConn, k int, pick func(*winStats) []uint32) []uint32 {
	var all []uint32
	for _, g := range conns {
		all = append(all, pick(&g.win[k])...)
	}
	slices.Sort(all)
	return all
}

// quantile reads the q-quantile of sorted samples, in microseconds.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := min(int(q*float64(len(sorted))), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the first and third quartile as a share
// of the median: the run's own estimate of its noise.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(p float64) float64 { return s[min(int(p*float64(len(s))), len(s)-1)] }
	return (q(0.75) - q(0.25)) / m
}
