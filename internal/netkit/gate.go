package netkit

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/runtime"
)

// DepthTTL is how long a queue's last depth sample stays in the gate's
// aggregate without being refreshed. Engines sample every queue on a
// short period while they run, so a healthy stream refreshes far inside
// the TTL; a stream that stops — the engine drained, was swapped on a
// restart, or stopped sampling a retired dispatcher — ages out instead
// of contributing a stale depth to the overload verdict forever. Before
// aging existed, a single high sample from a dead queue could wedge the
// gate into permanent overload.
const DepthTTL = 2 * time.Second

// Gate is the bounded-admission controller: it implements
// runtime.Observer, watches the engines' periodic queue-depth samples,
// and reports overload once the aggregate backlog crosses its
// watermark — the SEDA-style signal (queue length) the paper's §3.2
// runtimes expose, read from the same Observer plane everything else
// uses. Attach the gate to the runtime with WithObserver (MultiObserver
// composes it with other observers, and attaching it is what turns
// queue sampling on) and to the Plane through Config.Gate; the plane
// then sheds fresh connections while Overloaded, and servers consult
// Overloaded to announce `Connection: close` on keep-alive responses so
// load drains instead of queueing unboundedly.
//
// The watermark is adjustable at runtime (SetWatermark): the SLO
// controller moves it to hold a latency target, re-evaluating the
// overload verdict against the samples already held.
type Gate struct {
	// watermark is atomic so the controller can retune it while the
	// samplers run; <= 0 never trips.
	watermark atomic.Int64

	// overloaded caches the comparison so the admission hot path is one
	// atomic load per accepted connection.
	overloaded atomic.Bool

	mu     sync.Mutex
	depths map[string]depthSample

	// now is the clock, swappable in tests to drive aging
	// deterministically.
	now func() time.Time
}

// depthSample is one queue's latest depth and when it arrived.
type depthSample struct {
	depth int
	at    time.Time
}

// NewGate returns a gate tripping when the engines' sampled queue
// depths sum past watermark. A watermark <= 0 never trips.
func NewGate(watermark int) *Gate {
	g := &Gate{now: time.Now}
	g.watermark.Store(int64(watermark))
	return g
}

// NewGateObserver is the admission-gate wiring of a gated server: it
// builds the gate (nil when watermark <= 0) and returns the observer to
// hand the runtime — the gate composed with obs, or obs unchanged
// without one. Composing by hand invites the typed-nil trap
// (MultiObserver cannot tell a nil *Gate from a live observer); this
// helper is the one place that gets it right.
func NewGateObserver(watermark int, obs runtime.Observer) (*Gate, runtime.Observer) {
	if watermark <= 0 {
		return nil, obs
	}
	g := NewGate(watermark)
	return g, runtime.MultiObserver(obs, g)
}

// SamplePeriod is the queue-depth sampling period a server asks its
// runtime for (runtime.WithQueueSampleInterval): 5ms when an admission
// watermark is set — the gate needs a fresh signal — else 0, the
// runtime's default.
func SamplePeriod(watermark int) time.Duration {
	if watermark > 0 {
		return 5 * time.Millisecond
	}
	return 0
}

// Watermark returns the current threshold.
func (g *Gate) Watermark() int { return int(g.watermark.Load()) }

// SetWatermark retunes the threshold and re-evaluates the overload
// verdict against the samples already held, so admission reacts on the
// next accept instead of waiting out a sampling period.
func (g *Gate) SetWatermark(watermark int) {
	g.watermark.Store(int64(watermark))
	g.mu.Lock()
	g.recomputeLocked(g.now())
	g.mu.Unlock()
}

// Overloaded reports whether the last samples exceeded the watermark.
func (g *Gate) Overloaded() bool { return g.overloaded.Load() }

// Refresh re-ages the sample set against the clock without taking a
// new sample. The controller calls it every control step, so a stream
// whose engine stopped sampling entirely (drained, or swapped on a
// lifecycle transition) decays out of the verdict even with no live
// sampler left to trigger the pruning.
func (g *Gate) Refresh() {
	g.mu.Lock()
	g.recomputeLocked(g.now())
	g.mu.Unlock()
}

// QueueDepth implements runtime.Observer: each engine queue's latest
// sample replaces its previous one, and the aggregate is compared
// against the watermark. Counter streams riding the queue-depth
// surface (runtime.CounterQueue) are not backlogs and are excluded;
// queues that stop sampling age out of the aggregate after DepthTTL.
func (g *Gate) QueueDepth(kind runtime.EngineKind, queue string, depth int) {
	if runtime.CounterQueue(queue) {
		return
	}
	key := kind.String() + "/" + queue
	g.mu.Lock()
	if g.depths == nil {
		g.depths = make(map[string]depthSample)
	}
	now := g.now()
	g.depths[key] = depthSample{depth: depth, at: now}
	// Published under the mutex: concurrent samplers must not store
	// out of order, or a stale overload verdict could stick.
	g.recomputeLocked(now)
	g.mu.Unlock()
}

// recomputeLocked ages out stale streams, re-sums the rest, and
// publishes the overload verdict. Callers hold g.mu.
func (g *Gate) recomputeLocked(now time.Time) {
	total := 0
	for key, s := range g.depths {
		if now.Sub(s.at) > DepthTTL {
			delete(g.depths, key)
			continue
		}
		total += s.depth
	}
	wm := g.watermark.Load()
	g.overloaded.Store(wm > 0 && int64(total) > wm)
}

// FlowDone implements runtime.Observer; flow terminals carry no backlog
// signal, so the gate ignores them.
func (g *Gate) FlowDone(*core.FlatGraph, uint64, runtime.FlowOutcome, time.Duration) {}

// NodeDone implements runtime.Observer and is ignored.
func (g *Gate) NodeDone(*core.FlatGraph, *core.FlatNode, time.Duration) {}

var _ runtime.Observer = (*Gate)(nil)
