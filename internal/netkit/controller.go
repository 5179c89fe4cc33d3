package netkit

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/runtime"
)

// ctrlRingSize is the served-latency window's capacity (a power of two
// so the writer masks instead of dividing). At 4096 samples the window
// holds ~0.5 s of traffic at 8k req/s — several control intervals —
// and costs 32 KB per controller.
const (
	ctrlRingSize = 4096
	ctrlRingMask = ctrlRingSize - 1
)

// The control law's tuning. A 50ms period detects an overshoot one
// window after it starts, and probing up by 4 admits a burst small
// enough that its queueing delay stays inside the SLO band instead of
// spiking served p95 (the AIMD limit cycle's amplitude is the
// up-step's queueing cost).
const (
	// ctrlInterval is the control period: every interval the
	// controller digests the window and takes one AIMD step.
	ctrlInterval = 50 * time.Millisecond
	// ctrlStep is the additive increase per interval while under the
	// SLO — slow probing upward, the AI of AIMD.
	ctrlStep = 4
	// ctrlBackoff is the multiplicative decrease factor applied while
	// over the SLO — fast retreat, the MD of AIMD.
	ctrlBackoff = 0.5
	// ctrlBand is the hysteresis band as a fraction of the target:
	// within Target±Band the controller holds, so boundary noise cannot
	// flap the watermark.
	ctrlBand = 0.15
	// ctrlMinSamples is the fewest window samples the controller acts
	// on; thinner windows hold the previous decision rather than chase
	// noise.
	ctrlMinSamples = 16
	// ctrlMinWatermark and ctrlMaxWatermark clamp the gate watermark.
	// The floor keeps a latency spike from strangling admission
	// entirely; the ceiling bounds the backlog a recovering controller
	// can re-admit.
	ctrlMinWatermark = 8
	ctrlMaxWatermark = 4096
	// ctrlConnCapFactor sets the plane's live-connection cap to
	// factor×watermark on every step, bounding the admission burst a
	// between-samples window lets through.
	ctrlConnCapFactor = 2
)

// ControllerConfig configures an SLO controller. Only Target is
// required.
type ControllerConfig struct {
	// Target is the served-p95 SLO: the controller moves the admission
	// watermark so the p95 of completed flows holds at or under it.
	Target time.Duration

	// Kind labels the controller's trajectory streams on the
	// QueueDepth surface (the engine whose pipeline it steers).
	Kind runtime.EngineKind

	// Sink, when non-nil, receives the control trajectory: one sample
	// of each runtime.Ctrl* stream per step, so harnesses can print
	// watermark/p95/shed-rate over time alongside the backlogs.
	Sink runtime.Observer
}

// Controller is the SLO-targeting admission controller: it closes the
// loop the static watermark leaves open. The Gate converts backlog
// into sheds, but picking its watermark by hand ties the latency bound
// to one machine and one workload; the controller instead measures
// served latency on the Observer plane — every completed flow's
// elapsed time lands in a fixed ring via FlowDone, allocation-free —
// and every ctrlInterval compares the window's p95 against the Target,
// stepping the watermark (and the plane's conn cap) with AIMD:
// multiplicative decrease while over the SLO, additive increase while
// under it, a hysteresis band between so boundary noise cannot flap
// admission. This is the SEDA adaptive-overload story run on the Flux
// pipeline: the runtime exposes the measurements, the controller
// reacts in the runtime.
//
// Attach it to the runtime with WithObserver (compose with
// MultiObserver alongside the Gate) and start its control loop with
// Start; Tick is the loop body, exported so tests drive synthetic
// time deterministically.
type Controller struct {
	cfg   ControllerConfig
	gate  *Gate
	plane *Plane // may be nil: tests steer a bare gate

	// ring holds the last ctrlRingSize served latencies in nanoseconds;
	// widx is the monotonic write cursor. FlowDone is the hot path: one
	// atomic add, one masked atomic store, no allocation.
	ring [ctrlRingSize]atomic.Int64
	widx atomic.Uint64

	// Control-loop state, owned by Tick (one goroutine / one test).
	lastIdx   uint64
	lastSheds uint64
	scratch   []int64

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Decision is one control step's outcome, returned by Tick for tests
// and trajectory displays.
type Decision struct {
	Samples   int           // served flows digested this step
	P95       time.Duration // the window's served p95 (0 below ctrlMinSamples)
	ShedRate  float64       // sheds/sec over the step
	Watermark int           // gate watermark after the step
	ConnCap   int           // plane conn cap after the step (0 if unmanaged)
}

func (d Decision) String() string {
	return fmt.Sprintf("n=%d p95=%v sheds/s=%.0f wm=%d cap=%d",
		d.Samples, d.P95.Round(10*time.Microsecond), d.ShedRate, d.Watermark, d.ConnCap)
}

// NewController builds a controller steering gate (required) and plane
// (optional). The gate's current watermark is the starting point.
func NewController(cfg ControllerConfig, gate *Gate, plane *Plane) (*Controller, error) {
	if cfg.Target <= 0 {
		return nil, fmt.Errorf("netkit: controller needs a Target p95")
	}
	if gate == nil {
		return nil, fmt.Errorf("netkit: controller needs a gate to steer")
	}
	c := &Controller{
		cfg:     cfg,
		gate:    gate,
		plane:   plane,
		scratch: make([]int64, 0, ctrlRingSize),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	// Start inside the clamp: a hand-picked initial watermark outside
	// [min,max] would otherwise take many steps to re-enter it.
	c.applyWatermark(clamp(gate.Watermark(), ctrlMinWatermark, ctrlMaxWatermark))
	return c, nil
}

// BindPlane attaches a connection plane built after the controller —
// hosts must wire the controller into the runtime's observer chain
// before the runtime exists, and the plane can only be opened against
// the built runtime. Call before Start; a nil plane or a second bind
// is a no-op. Binding makes the plane's shed count the controller's
// shed-rate input and applies the current watermark's conn cap.
func (c *Controller) BindPlane(p *Plane) {
	if p == nil || c.plane != nil {
		return
	}
	c.plane = p
	c.applyWatermark(c.gate.Watermark())
}

// FlowDone implements runtime.Observer: completed flows are served
// requests, and their elapsed time is the controller's input signal.
// Errored and dropped flows carry no service latency (a disconnecting
// client is not the server being slow) and are excluded.
func (c *Controller) FlowDone(_ *core.FlatGraph, _ uint64, outcome runtime.FlowOutcome, elapsed time.Duration) {
	if outcome != runtime.FlowCompleted {
		return
	}
	i := c.widx.Add(1) - 1
	c.ring[i&ctrlRingMask].Store(int64(elapsed))
}

// NodeDone implements runtime.Observer and is ignored.
func (c *Controller) NodeDone(*core.FlatGraph, *core.FlatNode, time.Duration) {}

// QueueDepth implements runtime.Observer and is ignored — backlog is
// the Gate's signal; the controller reads latency.
func (c *Controller) QueueDepth(runtime.EngineKind, string, int) {}

// Start launches the control loop; it stops when ctx is cancelled or
// Stop is called. Starting twice is a no-op.
func (c *Controller) Start(ctx context.Context) {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(c.done)
		t := time.NewTicker(ctrlInterval)
		defer t.Stop()
		last := time.Now()
		for {
			select {
			case <-ctx.Done():
				return
			case <-c.stop:
				return
			case now := <-t.C:
				c.Tick(now.Sub(last))
				last = now
			}
		}
	}()
}

// Stop halts the control loop (idempotent, safe before Start; the
// last decision's watermark and cap remain in force).
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.started.Load() {
		<-c.done
	}
}

// Tick runs one control step over the samples recorded since the last
// step, with elapsed the wall time they cover. It is the loop body of
// Start, exported so tests can drive synthetic latency through
// FlowDone and step deterministic time.
func (c *Controller) Tick(elapsed time.Duration) Decision {
	// Age the gate's sample set: an engine that stopped sampling
	// (drained, swapped on restart) must decay out of the overload
	// verdict even though no sampler is left to trigger pruning.
	c.gate.Refresh()

	var shedRate float64
	if c.plane != nil && elapsed > 0 {
		cur := c.plane.shed.Load()
		shedRate = float64(cur-c.lastSheds) / elapsed.Seconds()
		c.lastSheds = cur
	}

	// Digest the window: the samples written since the last step, up to
	// ring capacity (older ones were overwritten — the window is the
	// freshest ctrlRingSize either way). Concurrent writers may overwrite
	// a slot mid-copy; an occasional newer-than-window sample is noise
	// the hysteresis band absorbs.
	w := c.widx.Load()
	n := w - c.lastIdx
	if n > ctrlRingSize {
		n = ctrlRingSize
	}
	c.lastIdx = w
	c.scratch = c.scratch[:0]
	for i := w - n; i != w; i++ {
		c.scratch = append(c.scratch, c.ring[i&ctrlRingMask].Load())
	}

	d := Decision{Samples: int(n), Watermark: c.gate.Watermark()}
	if int(n) >= ctrlMinSamples {
		slices.Sort(c.scratch)
		d.P95 = time.Duration(quantileInt64(c.scratch, 0.95))
		target := float64(c.cfg.Target)
		switch p95 := float64(d.P95); {
		case p95 > target*(1+ctrlBand):
			// Over the SLO: multiplicative decrease, and always by at
			// least one so a small watermark cannot get stuck above the
			// floor.
			next := int(float64(d.Watermark) * ctrlBackoff)
			if next >= d.Watermark {
				next = d.Watermark - 1
			}
			d.Watermark = clamp(next, ctrlMinWatermark, ctrlMaxWatermark)
		case p95 < target*(1-ctrlBand):
			// Under the SLO: additive increase — probe for throughput,
			// recover after load drops.
			d.Watermark = clamp(d.Watermark+ctrlStep, ctrlMinWatermark, ctrlMaxWatermark)
		}
		// Within the band: hold. The dead zone is the hysteresis that
		// keeps boundary noise from flapping admission.
	}
	d.ShedRate = shedRate
	c.applyWatermark(d.Watermark)
	if c.plane != nil {
		d.ConnCap = c.plane.MaxConns()
	}

	if sink := c.cfg.Sink; sink != nil {
		sink.QueueDepth(c.cfg.Kind, runtime.CtrlWatermark, d.Watermark)
		sink.QueueDepth(c.cfg.Kind, runtime.CtrlConnCap, d.ConnCap)
		sink.QueueDepth(c.cfg.Kind, runtime.CtrlWindowP95, int(d.P95.Microseconds()))
		sink.QueueDepth(c.cfg.Kind, runtime.CtrlShedRate, int(shedRate))
	}
	return d
}

// applyWatermark publishes a watermark decision to the gate and, with
// a plane bound, the plane's conn cap.
func (c *Controller) applyWatermark(wm int) {
	if c.gate.Watermark() != wm {
		c.gate.SetWatermark(wm)
	}
	if c.plane != nil {
		if cap := ctrlConnCapFactor * wm; c.plane.MaxConns() != cap {
			c.plane.SetMaxConns(cap)
		}
	}
}

// quantileInt64 mirrors the metrics package's quantile convention on a
// sorted int64 slice.
func quantileInt64(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

var _ runtime.Observer = (*Controller)(nil)
