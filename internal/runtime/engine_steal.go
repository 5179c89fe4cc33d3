package runtime

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/core"
)

// The event-driven runtime (§3.2.2), in one engine with N dispatchers:
// EventDriven is N = 1 — the paper's single-threaded event server — and
// WorkStealing is N = GOMAXPROCS, one dispatcher per core, so event
// throughput scales with dispatcher count instead of collapsing on one
// shared queue's mutex. Config.withDefaults is the only difference
// between the two kinds.
//
// A dispatcher must never block. Flows advance in run-to-block
// segments: consecutive non-blocking vertices execute inline in one
// dispatch (an N-node flow costs one queue trip, not N), and a flow
// yields only when it must. Sources wait for readiness off the
// dispatchers — in Go that wait is the netpoller, a goroutine blocked in
// a read, where the paper's server blocks in one select — each on a
// goroutine of its own (Server.startSources, as on every engine). A
// source's record runs its first segment inline on that goroutine, the
// way an offload worker carries a flow past a blocking node, so a flow
// that never blocks or contends never reaches a dispatcher at all.
// Past that first segment —
//
//   - nodes marked blocking are offloaded to a shared async pool, the Go
//     analogue of the paper's LD_PRELOAD interception, and the offload
//     worker that ran the node carries the flow on — further nodes,
//     blocking or not, inline, to its terminal or its next contended
//     constraint — instead of handing the result back to a dispatcher
//     (each hand-back was a goready plus a wakep futex wake). A successor
//     the flow re-admits through SourceHandle.Continue (the next
//     keep-alive request) runs next on the same worker, unless work waits
//     in the async queue;
//   - lock acquisition never blocks, on a dispatcher, an offload worker
//     or a source's goroutine: a contended constraint parks the flow on the lock's FIFO
//     wait queue through its intrusive waiter node (no closure, no
//     allocation), so later acquirers cannot starve earlier ones. A flow
//     holding the constraint can sit in the async queue waiting for a
//     worker, so workers blocked on it would deadlock the pool. The grant
//     resumes the waiter on the *releasing* flow's last dispatcher — the
//     lock handoff already moved the protected state to that core — or
//     through the injection queue if the releaser never ran on one.
//
// Scheduling across dispatchers follows multicore runtime schedulers
// (Go's own P-local run queues, Cilk-style deques):
//
//   - each dispatcher owns a deque of events: it pushes and pops at the
//     LIFO end, so a flow's continuation runs while its state is still
//     cache-hot, keeping a flow's life on one core in the common case;
//   - a dispatcher that runs dry batch-drains the injection queue
//     (external Submit admissions and any work without a home), then
//     steals the oldest half of a random victim's deque — oldest first,
//     so migrated work preserves rough admission order;
//   - idle dispatchers park on a per-dispatcher token channel. The
//     parking protocol is announce-then-verify: a dispatcher publishes
//     its parked flag, then re-scans every queue before sleeping, while
//     producers publish work before reading parked flags — whichever
//     side loses the race still observes the other's write, so no wakeup
//     is missed and Drain cannot deadlock on a sleeping core.

// stealBatch is how many events a dispatcher claims per mutex round
// trip, from its own deque or the injection queue.
const stealBatch = 8

// event resumes a flow at a vertex.
type event struct {
	fl  *Flow
	tbl *graphTable
	v   *core.FlatNode
	rec Record

	// acquired tracks progress through an acquire vertex's constraint
	// set across parked-grant resumptions.
	acquired int
}

type stealEngine struct {
	s        *Server
	ctx      context.Context
	ctxDone  <-chan struct{}
	disp     []*stealDispatcher
	injectq  *fifo[event]
	asyncq   *fifo[event]
	inflight atomic.Int64
	// retired is set once every source has returned (startSources).
	retired atomic.Bool
	// nparked counts dispatchers currently in (or entering) the parked
	// state, so the admission path skips the per-dispatcher wake scan —
	// the common all-busy case costs one atomic load.
	nparked atomic.Int32
	// ninject mirrors the injection queue's length (incremented after a
	// successful offer, decremented by drainInject), so every dispatcher
	// iteration can probe for external admissions with one atomic load
	// instead of the queue mutex — an injected flow is picked up on the
	// next event boundary, not after a batch of local work. Transiently
	// negative under racing drains; only > 0 is meaningful.
	ninject atomic.Int64
	// closing elects the single closer; closed is what dispatchers gate
	// on, stored only after the injection queue is closed. The ordering
	// is what makes a Submit racing the close safe: an offer that
	// succeeded happened before injectq.close(), hence before closed
	// became visible, hence before any dispatcher's first closing-drain
	// pass — the straggler is always found.
	closing atomic.Bool
	closed  atomic.Bool
	done    chan struct{}
}

type stealDispatcher struct {
	e  *stealEngine
	id int
	dq deque[event]
	// wake is the dispatcher's parking token: parking blocks on it, and
	// producers signal it to unpark the dispatcher.
	wake   chan struct{}
	parked atomic.Bool
	steals atomic.Uint64
	// scratch is the reusable steal buffer, so migrating half a victim's
	// deque allocates nothing in steady state.
	scratch []event
	rng     uint64
	// depthName is the observer label ("disp0", ...), precomputed so
	// sampling does not format strings.
	depthName string
}

func newStealEngine(s *Server) Engine {
	e := &stealEngine{
		s:       s,
		injectq: newFIFO[event](),
		asyncq:  newFIFO[event](),
		done:    make(chan struct{}),
	}
	n := s.cfg.Dispatchers
	e.disp = make([]*stealDispatcher, n)
	for i := range e.disp {
		e.disp[i] = &stealDispatcher{
			e:         e,
			id:        i,
			wake:      make(chan struct{}, 1),
			rng:       uint64(i)*0x9E3779B97F4A7C15 + 1,
			depthName: "disp" + strconv.Itoa(i),
		}
	}
	return e
}

func (e *stealEngine) Start(ctx context.Context) error {
	e.ctx = ctx
	e.ctxDone = ctx.Done()
	s := e.s

	var asyncWG sync.WaitGroup
	for i := 0; i < s.cfg.AsyncWorkers; i++ {
		asyncWG.Add(1)
		go func() {
			defer asyncWG.Done()
			e.asyncWorker()
		}()
	}

	if s.obs != nil {
		go e.sampleQueues()
	}

	var dispWG sync.WaitGroup
	for _, d := range e.disp {
		dispWG.Add(1)
		go func(d *stealDispatcher) {
			defer dispWG.Done()
			d.loop()
		}(d)
	}
	go func() {
		dispWG.Wait()
		e.asyncq.close()
		asyncWG.Wait()
		close(e.done)
	}()
	// Retirement re-checks termination directly: a parked engine has no
	// dispatcher to do it.
	s.startSources(ctx, e, func() {
		e.retired.Store(true)
		e.maybeFinish()
	})
	return nil
}

// admit builds a source record's flow and runs its first run-to-block
// segment inline on the source's goroutine: a blocking node still goes
// to the offload pool and a contended constraint still parks the flow,
// so the source goroutine is back at its source as soon as the flow
// would yield a dispatcher. The source holds the engine open while it
// runs (retired is unset), so termination needs no re-check here.
func (e *stealEngine) admit(poll *Flow, st *sourceState, rec Record) {
	fl := e.s.newFlow(e.ctx, st.sessionOf(rec))
	fl.adoptRecord(poll)
	e.inflight.Add(1)
	e.run(fl, st.tbl, st.tbl.g.Entry, rec, 0, false)
}

// Submit admits an externally-originated flow through the injection
// queue; the next idle dispatcher batch-drains it. Admission ends at
// cancellation, not at quiescence: without the context check, a steady
// stream of successful injections could hold inflight above zero
// forever and livelock the drain.
func (e *stealEngine) Submit(fl *Flow, rec Record) error {
	select {
	case <-e.ctxDone:
		e.s.freeFlow(fl)
		return ErrServerClosed
	default:
	}
	e.inflight.Add(1)
	tbl := fl.src.tbl
	if !e.injectq.offer(event{fl: fl, tbl: tbl, v: tbl.g.Entry, rec: rec}) {
		e.inflight.Add(-1)
		// The transient inflight bump may have been the last thing
		// holding a closing dispatcher in its drain loop; re-announce
		// quiescence so it re-checks and exits (a lost wake here would
		// hang Drain).
		e.maybeFinish()
		e.s.freeFlow(fl)
		return ErrServerClosed
	}
	e.ninject.Add(1)
	e.wakeOneParked()
	return nil
}

func (e *stealEngine) Drain(ctx context.Context) error {
	return awaitDone(e.done, ctx)
}

// maybeFinish begins shutdown once every source has retired and no flow
// is in flight: queued events — and flows running on offload workers or
// on a source's goroutine — hold inflight > 0, so no settled work can be
// stranded by closing. A Submit can still race the close — its flow
// accepted by the injection queue an instant after the counters read
// zero — which is why dispatchers keep draining after closed flips
// (nextClosing) and why the wake fan-out below runs on every quiescence
// observation, not just the closing one: the dispatcher that retires
// such a straggler re-wakes the others so they can re-check and exit.
func (e *stealEngine) maybeFinish() {
	if !e.retired.Load() || e.inflight.Load() != 0 {
		return
	}
	if e.closing.CompareAndSwap(false, true) {
		e.injectq.close()
		e.closed.Store(true)
	}
	for _, d := range e.disp {
		d.signalWake()
	}
}

// nextClosing is the dispatcher loop's tail once the engine has closed:
// drain any straggler events — a Submit that won its race against the
// close has its flow sitting in the injection queue (fifo pendings
// survive close), and its lock grants land on deques — and exit only
// when no flow is left in flight. Parking here needs no flag protocol:
// deque pushes signal the owning dispatcher's buffered wake token
// directly, and maybeFinish (which offload workers also call when they
// retire a flow) wakes everyone whenever the engine is observed
// quiescent.
func (d *stealDispatcher) nextClosing(buf []event) (int, bool) {
	e := d.e
	for {
		if ev, ok := d.dq.pop(); ok {
			buf[0] = ev
			return 1, true
		}
		if n := d.drainInject(buf); n > 0 {
			return n, true
		}
		if e.inflight.Load() == 0 {
			return 0, false
		}
		<-d.wake
	}
}

// sampleQueues feeds the observer plane each dispatcher's deque depth,
// the injection and async-offload backlogs, and the cumulative steal
// count (reported through the queue-depth surface as the monotonic
// QueueSteals sample — a counter, not a backlog, which CounterQueue
// lets depth-aggregating consumers exclude). Samples carry the server's
// own kind, so an EventDriven server reports as EventDriven.
func (e *stealEngine) sampleQueues() {
	t := time.NewTicker(e.s.cfg.QueueSample)
	defer t.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-t.C:
			obs, kind := e.s.obs, e.s.cfg.Kind
			var steals uint64
			for _, d := range e.disp {
				obs.QueueDepth(kind, d.depthName, d.dq.len())
				steals += d.steals.Load()
			}
			obs.QueueDepth(kind, "inject", e.injectq.len())
			obs.QueueDepth(kind, "async", e.asyncq.len())
			obs.QueueDepth(kind, QueueSteals, int(steals))
		}
	}
}

func (d *stealDispatcher) signalWake() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// pushTo lands an event on a specific dispatcher's deque and signals it,
// unparking it if necessary.
func (e *stealEngine) pushTo(d *stealDispatcher, ev event) {
	d.dq.push(ev)
	d.signalWake()
}

// loop is the dispatcher body. Dispatchers are plain goroutines, not
// pinned to OS threads: they park whenever they run dry, and waking a
// parked goroutine locked to its thread is a locked-M hand-off through
// futex (startlockedm/stopm), not a goroutine switch. Pinned, that
// hand-off took the steal engine's mean hop gap from 0.4 µs to 8.5 µs
// and cost bench/'s steal_small_keepalive 44 % of its throughput
// (EXPERIMENTS.md, PR 21); unpinned, a wake is a plain goroutine
// switch.
//
// Work is claimed in batches (nextBatch), one mutex round trip per
// stealBatch events instead of one per event. The buffer is
// termination-check-safe: every buffered event holds inflight > 0, so
// maybeFinish cannot observe
// quiescence while events sit in a dispatcher's buffer. Buffered events
// are invisible to thieves, but a batch is at most stealBatch long.
func (d *stealDispatcher) loop() {
	e := d.e
	var buf [stealBatch]event
	for {
		n, ok := d.nextBatch(buf[:])
		if !ok {
			return
		}
		for i := 0; i < n; i++ {
			ev := buf[i]
			buf[i] = event{} // release the record/flow for GC
			d.handle(ev)
			e.maybeFinish()
			// External admissions must not wait out the rest of an owner
			// batch: spill them onto the deque between buffered events,
			// where a woken thief reaches them next. A lone dispatcher has
			// no thief and reaches them no sooner from its deque than from
			// the injection queue, so it leaves them there.
			if i+1 < n && len(e.disp) > 1 && e.ninject.Load() > 0 {
				d.spillInject()
			}
		}
	}
}

// spillInject drains pending external admissions onto the local deque
// mid-batch; the surplus is stealable, so a parked peer is invited.
func (d *stealDispatcher) spillInject() {
	var buf [stealBatch]event
	n := d.e.injectq.tryPopBatch(buf[:])
	if n == 0 {
		return
	}
	d.e.ninject.Add(-int64(n))
	for i := 0; i < n; i++ {
		d.dq.push(buf[i])
		buf[i] = event{}
	}
	d.e.wakeOneParked()
}

// nextBatch fills buf with the dispatcher's next events: pending
// external admissions first (one atomic probe — a never-empty local
// deque must not starve the injection queue), then an owner-side batch
// from the local deque (LIFO, one mutex trip), then half of a random
// victim's deque, and otherwise parks until a producer signals. The
// local deque fills a whole batch, and so does the injection queue for a
// lone dispatcher; the other paths yield one event per call.
func (d *stealDispatcher) nextBatch(buf []event) (int, bool) {
	e := d.e
	for {
		if e.closed.Load() {
			return d.nextClosing(buf)
		}
		if e.ninject.Load() > 0 {
			if n := d.drainInject(buf); n > 0 {
				return n, true
			}
		}
		if n := d.dq.popBatch(buf); n > 0 {
			return n, true
		}
		if n := d.drainInject(buf); n > 0 {
			return n, true
		}
		if ev, ok := d.steal(); ok {
			buf[0] = ev
			return 1, true
		}
		// Announce-then-verify parking: publish the parked flag, then
		// re-scan every queue. A producer publishes work before reading
		// parked flags, so one of the two sides always sees the other.
		e.nparked.Add(1)
		d.parked.Store(true)
		if e.closed.Load() || d.dq.len() > 0 || e.injectq.len() > 0 || e.anyDequeued(d) {
			d.parked.Store(false)
			e.nparked.Add(-1)
			continue
		}
		<-d.wake
		d.parked.Store(false)
		e.nparked.Add(-1)
	}
}

// drainInject claims a batch from the injection queue into buf and
// reports how many events are there to run now. With peers only the
// first stays: the rest spill onto the local deque, where parked peers
// can steal them. A lone dispatcher has no one to share with, so it
// runs the whole batch from its buffer.
func (d *stealDispatcher) drainInject(buf []event) int {
	e := d.e
	n := e.injectq.tryPopBatch(buf)
	if n == 0 {
		return 0
	}
	e.ninject.Add(-int64(n))
	if n == 1 || len(e.disp) == 1 {
		return n
	}
	for i := 1; i < n; i++ {
		d.dq.push(buf[i])
		buf[i] = event{}
	}
	// The surplus is stealable; invite a parked peer.
	e.wakeOneParked()
	return 1
}

// anyDequeued reports whether any other dispatcher's deque holds work —
// the pre-park verification scan.
func (e *stealEngine) anyDequeued(self *stealDispatcher) bool {
	for _, d := range e.disp {
		if d != self && d.dq.len() > 0 {
			return true
		}
	}
	return false
}

// wakeOneParked unparks one parked dispatcher if there is one; the
// all-busy fast path is a single atomic load. It is the only wake work
// published to a shared queue needs: the producer publishes (offer,
// push) before it reads nparked and the parked flags, and a parking
// dispatcher announces (nparked, then parked) before it re-scans every
// queue. Whichever side goes second sees the other's write, so a
// dispatcher that this call skips finds the work in its pre-park scan; a
// busy one reaches it at its next batch, and a closing one drains the
// injection queue before it exits (nextClosing).
func (e *stealEngine) wakeOneParked() {
	if e.nparked.Load() == 0 {
		return
	}
	for _, d := range e.disp {
		if d.parked.Load() {
			d.signalWake()
			return
		}
	}
}

// nextRand is a xorshift step for victim selection; deterministic seeds
// per dispatcher, no shared state.
func (d *stealDispatcher) nextRand() uint64 {
	x := d.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	d.rng = x
	return x
}

// steal takes the oldest half of a random victim's deque: the first
// stolen event is returned to run now, the rest land on the thief's
// deque. The victim's mutex is released before the thief's is taken
// (stealHalf copies into the scratch buffer), so mutual steals cannot
// deadlock.
func (d *stealDispatcher) steal() (event, bool) {
	e := d.e
	n := len(e.disp)
	if n < 2 {
		return event{}, false
	}
	off := int(d.nextRand() % uint64(n))
	for i := 0; i < n; i++ {
		v := e.disp[(off+i)%n]
		if v == d {
			continue
		}
		if k := v.dq.stealHalf(&d.scratch); k > 0 {
			d.steals.Add(1)
			for j := 1; j < k; j++ {
				d.dq.push(d.scratch[j])
				d.scratch[j] = event{}
			}
			ev := d.scratch[0]
			d.scratch[0] = event{}
			return ev, true
		}
	}
	return event{}, false
}

// handle runs one event. The flow's dispatcher affinity is updated
// first: lock releases performed while it runs resume their waiters
// onto this dispatcher's deque. A step may be a lock grant for a flow
// that parked on an offload worker, so its next-flow slot is dropped: a
// dispatcher cannot carry a successor.
func (d *stealDispatcher) handle(ev event) {
	ev.fl.disp, ev.fl.car = d, nil
	d.e.run(ev.fl, ev.tbl, ev.v, ev.rec, ev.acquired, false)
}

// run executes consecutive vertices of one flow inline — run-to-block —
// returning only when the flow offloads a blocking node, parks on a
// contended constraint, or terminates. On a dispatcher a blocking node
// offloads the flow to the shared async pool; on an offload worker
// (onWorker) it runs inline. Everywhere, contended constraints park the
// flow through its intrusive waiter node. acquired carries a parked
// acquire vertex's progress through its constraint set.
func (e *stealEngine) run(fl *Flow, tbl *graphTable, v *core.FlatNode, rec Record, acquired int, onWorker bool) {
	s := e.s
	for {
		switch v.Kind {
		case core.FlatExec:
			if !onWorker && tbl.info[v.ID].blocking {
				e.asyncq.push(event{fl: fl, tbl: tbl, v: v, rec: rec})
				return
			}
			out, err := s.callNode(fl, tbl, v, rec)
			r := s.afterExec(fl, v, rec, out, err)
			v, rec = r.next, r.rec

		case core.FlatBranch:
			r := s.branchVertex(fl, tbl, v, rec)
			if r.terminal {
				e.inflight.Add(-1)
				s.freeFlow(fl)
				return
			}
			v, rec = r.next, r.rec

		case core.FlatAcquire:
			info := &tbl.info[v.ID]
			for acquired < len(info.cons) {
				rc := info.cons[acquired]
				if s.locks.tryAcquireResolved(fl, rc) {
					acquired++
					continue
				}
				fl.lw.tbl, fl.lw.v, fl.lw.rec, fl.lw.acquired = tbl, v, rec, acquired+1
				if !s.locks.parkWaiter(fl, rc, e) {
					return
				}
				acquired++
			}
			acquired = 0
			fl.path += v.Out[0].Inc
			v = v.Out[0].To

		case core.FlatRelease:
			s.locks.releaseN(fl, len(v.Cons))
			fl.path += v.Out[0].Inc
			v = v.Out[0].To

		case core.FlatExit, core.FlatError:
			s.finishFlow(fl, tbl.g, v)
			e.inflight.Add(-1)
			s.freeFlow(fl)
			return
		}
	}
}

// resumeGranted lands a lock-granted continuation on the deque of the
// releasing flow's last dispatcher — the core the protected state most
// recently passed through — falling back to the injection queue for
// flows that never ran on a dispatcher.
func (e *stealEngine) resumeGranted(n *lockWaiterNode, by *Flow) {
	ev := event{fl: n.fl, tbl: n.tbl, v: n.v, rec: n.rec, acquired: n.acquired}
	n.rec = nil // the event owns the record now; drop the node's pin
	if d := by.disp; d != nil && d.e == e {
		e.pushTo(d, ev)
		return
	}
	if e.injectq.offer(ev) {
		e.ninject.Add(1)
		e.wakeOneParked()
		return
	}
	// The injection queue only closes once inflight == 0, and a granted
	// continuation keeps inflight > 0 — so this push cannot be refused
	// while the flow it carries is alive. Land it on dispatcher 0 as a
	// belt-and-braces fallback.
	e.pushTo(e.disp[0], ev)
}

// asyncWorker runs an offloaded blocking node and carries its flow on
// from there to the flow's terminal or its next contended constraint.
// Successors the flow hands over through SourceHandle.Continue run next
// on this worker, inheriting the flow's last dispatcher for lock-grant
// locality. The worker retires flows itself, so it re-checks
// termination after each offload.
func (e *stealEngine) asyncWorker() {
	s := e.s
	car := new(carrier)
	for {
		ev, ok := e.asyncq.pop()
		if !ok {
			return
		}
		last := ev.fl.disp
		ev.fl.car = car
		e.run(ev.fl, ev.tbl, ev.v, ev.rec, 0, true)
		for st, rec := car.take(); st != nil; st, rec = car.take() {
			fl := s.newFlow(e.ctx, st.sessionOf(rec))
			fl.disp, fl.car = last, car
			e.run(fl, st.tbl, st.tbl.g.Entry, rec, 0, true)
		}
		e.maybeFinish()
	}
}

// carry runs a flow's successor on the offload worker running the flow
// unless blocking work already waits in the async queue. Like Submit it
// refuses after cancellation; the successor holds inflight > 0 from
// here, before its predecessor retires.
func (e *stealEngine) carry(fl *Flow, st *sourceState, rec Record) bool {
	select {
	case <-e.ctxDone:
		return false
	default:
	}
	if e.asyncq.len() != 0 || !fl.car.hold(st, rec) {
		return false
	}
	e.inflight.Add(1)
	return true
}
