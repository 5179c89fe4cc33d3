package runtime

import (
	"strings"
	"time"

	"github.com/flux-lang/flux/internal/core"
)

// FlowOutcome classifies how a flow ended.
type FlowOutcome uint8

const (
	// FlowCompleted means the flow reached the exit terminal.
	FlowCompleted FlowOutcome = iota
	// FlowErrored means the flow reached the error terminal (§2.4).
	FlowErrored
	// FlowDropped means a dispatch vertex matched no case (§2.3) and the
	// flow terminated mid-graph.
	FlowDropped
)

func (o FlowOutcome) String() string {
	switch o {
	case FlowCompleted:
		return "completed"
	case FlowErrored:
		return "errored"
	case FlowDropped:
		return "dropped"
	default:
		return "unknown"
	}
}

// Observer is the server's unified observability plane — one event
// surface for everything beyond the Stats counters:
//
//   - FlowDone fires at every flow terminal, including error terminals
//     and drops at an unmatched dispatch, with the Ball-Larus path
//     register at the point of termination (§5.2: error paths are
//     paths, and so are dropped ones).
//   - NodeDone fires after every node execution.
//   - QueueDepth delivers periodic samples of an engine's internal
//     queues (thread-pool admission backlog, event queue, async-I/O
//     offload queue), the quantity SEDA-style servers monitor for
//     overload control.
//
// The observer is resolved once at server construction and consulted
// through one nil check on the hot path, so an unobserved server pays
// nothing — the PR 1 zero-allocation path is preserved. Implementations
// must be safe for concurrent use. MultiObserver fans events out to
// several observers. The telemetry package's plane is the standard
// implementation, and its per-path slots are the §5.2 path profile.
type Observer interface {
	// FlowDone records a terminated flow: its graph, Ball-Larus path ID,
	// outcome, and elapsed wall time.
	FlowDone(g *core.FlatGraph, pathID uint64, outcome FlowOutcome, elapsed time.Duration)
	// NodeDone records one node execution and its duration.
	NodeDone(g *core.FlatGraph, v *core.FlatNode, elapsed time.Duration)
	// QueueDepth records one sample of a named engine queue.
	QueueDepth(kind EngineKind, queue string, depth int)
}

// QueueSteals is the work-stealing engine's cumulative steal count,
// reported through the QueueDepth surface as a monotonic sample. It is
// a counter, not a backlog: admission controllers aggregating queue
// depths must exclude it (CounterQueue reports which names to skip).
const QueueSteals = "steals"

// CtrlStreamPrefix marks the admission controller's decision streams,
// reported through the QueueDepth surface so harnesses can record the
// control trajectory alongside the engine backlogs it reacts to. They
// are gauges of the controller's own state, not backlogs: CounterQueue
// excludes the whole prefix.
const CtrlStreamPrefix = "ctrl/"

// The SLO controller's decision streams (netkit.Controller emits one
// sample of each per control step).
const (
	// CtrlWatermark is the admission gate watermark after the step.
	CtrlWatermark = CtrlStreamPrefix + "watermark"
	// CtrlConnCap is the connection plane's live-conn cap after the step.
	CtrlConnCap = CtrlStreamPrefix + "conncap"
	// CtrlWindowP95 is the window's served p95 in microseconds.
	CtrlWindowP95 = CtrlStreamPrefix + "p95us"
	// CtrlShedRate is the observed shed rate, sheds/sec, over the window.
	CtrlShedRate = CtrlStreamPrefix + "sheds-per-sec"
)

// MsgStreamPrefix marks per-message-type protocol streams (the
// bittorrent server publishes one cumulative counter per wire-message
// kind, plus piece-latency gauges, under this prefix). They ride the
// QueueDepth surface so harnesses record them alongside backlogs and
// ctrl/* trajectories, but they are counters/gauges, not backlogs:
// CounterQueue excludes the whole prefix.
const MsgStreamPrefix = "msg/"

// CounterQueue reports whether a QueueDepth stream name carries a
// monotonic counter or controller gauge rather than a backlog depth.
// Engines adding counter streams to the queue-depth surface must
// register the name here, or every depth-watching admission controller
// would sum them as backlog and trip permanently into overload.
func CounterQueue(queue string) bool {
	return queue == QueueSteals ||
		strings.HasPrefix(queue, CtrlStreamPrefix) ||
		strings.HasPrefix(queue, MsgStreamPrefix)
}

// ShedObserver is the optional Observer extension through which the
// connection plane reports admission drops: connections shed by
// overload control, refused by a bounded queue, or dropped because the
// server stopped admitting. Every shed that used to vanish in a
// `select { ...; default: close() }` is routed here, so overload
// behavior is observable alongside flow terminals and queue depths.
// MultiObserver forwards ConnShed to every member that implements it.
type ShedObserver interface {
	Observer
	// ConnShed records one connection shed by the named server, with a
	// short reason ("overload", "conn-limit", "refused", "closed", ...).
	ConnShed(server, reason string)
}

// ConnShed delivers a shed event to obs if it implements ShedObserver;
// a nil or shed-blind observer ignores it. The connection plane calls
// this so callers need no type assertions of their own.
func ConnShed(obs Observer, server, reason string) {
	if so, ok := obs.(ShedObserver); ok {
		so.ConnShed(server, reason)
	}
}

// multiObserver fans each event out to every member.
type multiObserver []Observer

func (m multiObserver) FlowDone(g *core.FlatGraph, pathID uint64, outcome FlowOutcome, elapsed time.Duration) {
	for _, o := range m {
		o.FlowDone(g, pathID, outcome, elapsed)
	}
}

func (m multiObserver) NodeDone(g *core.FlatGraph, v *core.FlatNode, elapsed time.Duration) {
	for _, o := range m {
		o.NodeDone(g, v, elapsed)
	}
}

func (m multiObserver) QueueDepth(kind EngineKind, queue string, depth int) {
	for _, o := range m {
		o.QueueDepth(kind, queue, depth)
	}
}

// ConnShed fans a shed event out to every member implementing the
// ShedObserver extension, so composition does not hide shed counters.
func (m multiObserver) ConnShed(server, reason string) {
	for _, o := range m {
		ConnShed(o, server, reason)
	}
}

// MultiObserver combines observers into one, skipping nils. It returns
// nil when every argument is nil, preserving the nil-cost fast path.
func MultiObserver(obs ...Observer) Observer {
	var out multiObserver
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}
