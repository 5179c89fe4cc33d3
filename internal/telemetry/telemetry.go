// Package telemetry is the always-on aggregation layer behind the
// runtime's Observer plane — the live form of the signals the benchmark
// harness only renders post-run. It turns the plane's event surface
// into continuously queryable state:
//
//   - per-graph flow-latency histograms and per-path slots (FlowDone):
//     each Ball-Larus path's count and time, which are both the
//     outcome counters and the §5.2 path profile (paths.go),
//   - per-node latency histograms (NodeDone),
//   - windowed time-series rings for every queue-depth stream,
//     including the SLO controller's ctrl/* trajectory and the protocol
//     msg/* counters (QueueDepth),
//   - per-server/reason shed counters with coalesced trajectories
//     (ConnShed), and
//   - 1-in-N sampled flow traces keyed by Ball-Larus path ID (N per
//     path slot, so rare paths are traced as often as hot ones).
//
// The record path is allocation-free and lock-free (histogram and
// counter updates are atomics; only the 1-in-N trace write takes a
// mutex), so a Telemetry can ride every experiment by default without
// disturbing the PR 1 zero-allocation hot path it observes.
// WriteMetrics renders the aggregate as Prometheus text; package ops
// serves it over HTTP with net/http/pprof and JSON snapshots under
// /debug/flux/ — the endpoints cmd/fluxtop renders live.
package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/runtime"
)

// DefaultTraceSample is the default flow-trace sampling period: one
// trace per N terminals counted into a path slot.
const DefaultTraceSample = 128

// traceCap bounds the sampled-trace ring.
const traceCap = 256

// graphTel is one graph's aggregation state. Paths are indexed by
// Ball-Larus ID and nodes by FlatNode.ID — the same dense-table trick
// the runtime's dispatch uses, so FlowDone and NodeDone are array
// indexes, not map probes.
type graphTel struct {
	g     *core.FlatGraph
	name  string
	flow  Histogram
	paths []pathSlot
	over  [2]pathSlot // completed, errored terminals without a path slot
	drop  pathSlot
	nodes []Histogram
}

// streamKey identifies one queue-depth stream without string
// concatenation (QueueDepth must not allocate per sample on a hot
// sampler).
type streamKey struct {
	kind  runtime.EngineKind
	queue string
}

// shedKey identifies one shed counter.
type shedKey struct {
	server string
	reason string
}

// flowTrace is one sampled flow terminal, stored pointer-and-scalar so
// sampling never allocates; labels are rendered at snapshot time.
type flowTrace struct {
	g       *core.FlatGraph
	pathID  uint64
	outcome runtime.FlowOutcome
	elapsed time.Duration
	at      int64
}

// Telemetry implements runtime.Observer and runtime.ShedObserver over
// the aggregation state above. One Telemetry may observe any number of
// servers concurrently — graphs, streams, and shed keys register
// themselves on first sight through copy-on-write maps, so the steady
// state is a single atomic pointer load and an immutable map lookup.
type Telemetry struct {
	start time.Time

	graphs  atomic.Pointer[map[*core.FlatGraph]*graphTel]
	streams atomic.Pointer[map[streamKey]*Series]
	sheds   atomic.Pointer[map[shedKey]*Counter]
	shedSer atomic.Pointer[map[shedKey]*Series]
	regMu   sync.Mutex // serializes copy-on-write registration

	shedTotal Counter

	traceEvery uint64
	traceMu    sync.Mutex
	traceBuf   [traceCap]flowTrace
	traceNext  int
	traceN     int

	connMu  sync.Mutex
	connSrc []connSource

	dynMu  sync.Mutex
	dynSrc []dynSource
}

// ConnStats mirrors a connection plane's admission counters for the ops
// endpoints (netkit.StatsSnapshot, without the import).
type ConnStats struct {
	Accepted uint64 `json:"accepted"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Live     int64  `json:"live"`
}

type connSource struct {
	name string
	fn   func() ConnStats
}

// DynPageStats mirrors a web server's dynamic-dispatch counters
// (fscript.DynStats, without the import): how its FScript renders were
// served. A healthy server shows Compiled racing ahead; Interpreted
// climbing means the compiled path is stale or disabled and the
// interpreter tax is being paid.
type DynPageStats struct {
	Compiled    uint64 `json:"compiled"`
	Interpreted uint64 `json:"interpreted"`
	FragHits    uint64 `json:"frag_hits"`
	FragMisses  uint64 `json:"frag_misses"`
}

type dynSource struct {
	name string
	fn   func() DynPageStats
}

// New returns an empty telemetry plane sampling one flow trace per
// DefaultTraceSample terminals of each path slot. Attach it to servers as an Observer
// (flux.WithTelemetry, or each macro server's Config.Telemetry).
func New() *Telemetry {
	return NewSampled(DefaultTraceSample)
}

// NewSampled returns a telemetry plane tracing one flow per every
// terminals of each path slot; every <= 0 disables trace sampling.
func NewSampled(every int) *Telemetry {
	t := &Telemetry{start: time.Now()}
	if every > 0 {
		t.traceEvery = uint64(every)
	}
	empty := make(map[*core.FlatGraph]*graphTel)
	t.graphs.Store(&empty)
	emptyS := make(map[streamKey]*Series)
	t.streams.Store(&emptyS)
	emptyC := make(map[shedKey]*Counter)
	t.sheds.Store(&emptyC)
	emptySS := make(map[shedKey]*Series)
	t.shedSer.Store(&emptySS)
	return t
}

// graph returns the graph's aggregation state, registering it on first
// sight. The fast path is one atomic load and one immutable-map lookup.
func (t *Telemetry) graph(g *core.FlatGraph) *graphTel {
	if gt := (*t.graphs.Load())[g]; gt != nil {
		return gt
	}
	t.regMu.Lock()
	defer t.regMu.Unlock()
	cur := *t.graphs.Load()
	if gt := cur[g]; gt != nil {
		return gt
	}
	gt := &graphTel{g: g, name: g.Source.Name, nodes: make([]Histogram, len(g.Nodes))}
	gt.initSlots()
	next := make(map[*core.FlatGraph]*graphTel, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[g] = gt
	t.graphs.Store(&next)
	return gt
}

// FlowDone implements runtime.Observer: the flow's latency lands in the
// graph's histogram, its count and time in its path's slot (one cache
// line per path, so concurrent terminals on different paths spread),
// and every Nth terminal of a slot a trace sample in the ring — the
// slot's count is the sampling counter. Allocation-free.
func (t *Telemetry) FlowDone(g *core.FlatGraph, pathID uint64, outcome runtime.FlowOutcome, elapsed time.Duration) {
	gt := t.graph(g)
	gt.flow.Record(elapsed)
	n := gt.slot(pathID, outcome).add(elapsed)
	if t.traceEvery > 0 && n%t.traceEvery == 0 {
		now := time.Now().UnixNano()
		t.traceMu.Lock()
		t.traceBuf[t.traceNext] = flowTrace{g: g, pathID: pathID, outcome: outcome, elapsed: elapsed, at: now}
		t.traceNext = (t.traceNext + 1) % traceCap
		if t.traceN < traceCap {
			t.traceN++
		}
		t.traceMu.Unlock()
	}
}

// NodeDone implements runtime.Observer: one array-indexed histogram
// record. Allocation-free.
func (t *Telemetry) NodeDone(g *core.FlatGraph, v *core.FlatNode, elapsed time.Duration) {
	gt := t.graph(g)
	if v.ID < len(gt.nodes) {
		gt.nodes[v.ID].Record(elapsed)
	}
}

// QueueDepth implements runtime.Observer: every stream on the
// queue-depth surface — engine backlogs, the steal counter, ctrl/*
// trajectories, msg/* protocol counters — lands in its own windowed
// series ring.
func (t *Telemetry) QueueDepth(kind runtime.EngineKind, queue string, depth int) {
	key := streamKey{kind: kind, queue: queue}
	s := (*t.streams.Load())[key]
	if s == nil {
		t.regMu.Lock()
		cur := *t.streams.Load()
		if s = cur[key]; s == nil {
			s = &Series{}
			next := make(map[streamKey]*Series, len(cur)+1)
			for k, v := range cur {
				next[k] = v
			}
			next[key] = s
			t.streams.Store(&next)
		}
		t.regMu.Unlock()
	}
	s.Append(time.Now().UnixNano(), int64(depth))
}

// shedCoalesce bounds the shed trajectories' append rate: under a shed
// storm the latest cumulative count overwrites the previous point
// instead of churning the ring.
const shedCoalesce = int64(100 * time.Millisecond)

// ConnShed implements runtime.ShedObserver: one striped-counter
// increment per shed, plus a coalesced trajectory point so the ops
// endpoints can show sheds over time, not just totals.
func (t *Telemetry) ConnShed(server, reason string) {
	key := shedKey{server: server, reason: reason}
	hint := strhash(reason)
	t.shedTotal.Add(hint, 1)
	c := (*t.sheds.Load())[key]
	ser := (*t.shedSer.Load())[key]
	if c == nil || ser == nil {
		t.regMu.Lock()
		curC := *t.sheds.Load()
		if c = curC[key]; c == nil {
			c = &Counter{}
			nextC := make(map[shedKey]*Counter, len(curC)+1)
			for k, v := range curC {
				nextC[k] = v
			}
			nextC[key] = c
			t.sheds.Store(&nextC)
		}
		curS := *t.shedSer.Load()
		if ser = curS[key]; ser == nil {
			ser = &Series{}
			nextS := make(map[shedKey]*Series, len(curS)+1)
			for k, v := range curS {
				nextS[k] = v
			}
			nextS[key] = ser
			t.shedSer.Store(&nextS)
		}
		t.regMu.Unlock()
	}
	c.Add(hint, 1)
	ser.AppendCoalesced(time.Now().UnixNano(), int64(c.Value()), shedCoalesce)
}

// RegisterConns registers a connection plane's stats function under a
// name; the ops endpoints poll it for the live admission counters. The
// function must stay safe to call after the plane shuts down (netkit's
// Stats reads atomics, so it is).
func (t *Telemetry) RegisterConns(name string, fn func() ConnStats) {
	if fn == nil {
		return
	}
	t.connMu.Lock()
	t.connSrc = append(t.connSrc, connSource{name: name, fn: fn})
	t.connMu.Unlock()
}

// RegisterDynPages registers a server's dynamic-dispatch stats function
// under a name; the ops endpoints poll it like RegisterConns.
func (t *Telemetry) RegisterDynPages(name string, fn func() DynPageStats) {
	if fn == nil {
		return
	}
	t.dynMu.Lock()
	t.dynSrc = append(t.dynSrc, dynSource{name: name, fn: fn})
	t.dynMu.Unlock()
}

// ShedTotal returns the total sheds recorded across all servers.
func (t *Telemetry) ShedTotal() uint64 { return t.shedTotal.Value() }

// --- snapshots --------------------------------------------------------------

// NodeSnapshot is one node's aggregated latency view.
type NodeSnapshot struct {
	Node string       `json:"node"`
	Hist HistSnapshot `json:"hist"`
}

// GraphSnapshot aggregates every observed graph instance sharing one
// source name (a benchmark sweep starts many servers from the same
// program; their flows are one logical stream).
type GraphSnapshot struct {
	Graph     string            `json:"graph"`
	Instances int               `json:"instances"`
	Flows     HistSnapshot      `json:"flows"`
	Outcomes  map[string]uint64 `json:"outcomes"`
	Nodes     []NodeSnapshot    `json:"nodes"`
}

// StreamSnapshot is one queue-depth stream's window.
type StreamSnapshot struct {
	Engine  string   `json:"engine"`
	Queue   string   `json:"queue"`
	Counter bool     `json:"counter"` // a counter/gauge stream, not a backlog
	Last    int64    `json:"last"`
	Samples []Sample `json:"samples,omitempty"`
}

// Name renders the stream's canonical "<engine>/<queue>" name.
func (s StreamSnapshot) Name() string { return s.Engine + "/" + s.Queue }

// ShedSnapshot is one server/reason shed counter and its trajectory.
type ShedSnapshot struct {
	Server  string   `json:"server"`
	Reason  string   `json:"reason"`
	Count   uint64   `json:"count"`
	Samples []Sample `json:"samples,omitempty"`
}

// ConnSnapshot is one registered connection plane's live counters.
type ConnSnapshot struct {
	Name  string    `json:"name"`
	Stats ConnStats `json:"stats"`
}

// DynPageSnapshot is one registered server's dynamic-dispatch counters.
type DynPageSnapshot struct {
	Name  string       `json:"name"`
	Stats DynPageStats `json:"stats"`
}

// TraceSnapshot is one sampled flow trace, rendered for reading.
type TraceSnapshot struct {
	At      int64  `json:"at"`
	Graph   string `json:"graph"`
	PathID  uint64 `json:"pathId"`
	Path    string `json:"path,omitempty"`
	Outcome string `json:"outcome"`
	Elapsed int64  `json:"elapsedNanos"`
}

// Snapshot is the full telemetry state at one instant — the payload of
// /debug/flux/summary and the input to fluxtop's renderer.
type Snapshot struct {
	At            int64             `json:"at"`
	UptimeSeconds float64           `json:"uptimeSeconds"`
	Graphs        []GraphSnapshot   `json:"graphs"`
	Streams       []StreamSnapshot  `json:"streams"`
	Sheds         []ShedSnapshot    `json:"sheds"`
	Conns         []ConnSnapshot    `json:"conns"`
	DynPages      []DynPageSnapshot `json:"dynPages,omitempty"`
	Traces        []TraceSnapshot   `json:"traces,omitempty"`
}

// withSeries controls whether a snapshot carries full series windows or
// just last values (the /metrics exposition needs only the latter).
func (t *Telemetry) snapshot(withSeries, withTraces bool) Snapshot {
	now := time.Now()
	s := Snapshot{At: now.UnixNano(), UptimeSeconds: now.Sub(t.start).Seconds()}

	// Graphs, merged by source name.
	byName := make(map[string]*GraphSnapshot)
	for _, gt := range *t.graphs.Load() {
		gs := byName[gt.name]
		if gs == nil {
			gs = &GraphSnapshot{Graph: gt.name, Outcomes: make(map[string]uint64)}
			byName[gt.name] = gs
		}
		gs.Instances++
		gs.Flows = gs.Flows.Merge(gt.flow.Snapshot())
		for o, n := range gt.outcomes() {
			gs.Outcomes[runtime.FlowOutcome(o).String()] += n
		}
		nodeByName := make(map[string]int, len(gs.Nodes))
		for i := range gs.Nodes {
			nodeByName[gs.Nodes[i].Node] = i
		}
		for i := range gt.nodes {
			hs := gt.nodes[i].Snapshot()
			if hs.Count == 0 {
				continue
			}
			label := gt.g.Nodes[i].Label()
			if j, ok := nodeByName[label]; ok {
				gs.Nodes[j].Hist = gs.Nodes[j].Hist.Merge(hs)
			} else {
				nodeByName[label] = len(gs.Nodes)
				gs.Nodes = append(gs.Nodes, NodeSnapshot{Node: label, Hist: hs})
			}
		}
	}
	for _, gs := range byName {
		sort.Slice(gs.Nodes, func(i, j int) bool {
			if gs.Nodes[i].Hist.Sum != gs.Nodes[j].Hist.Sum {
				return gs.Nodes[i].Hist.Sum > gs.Nodes[j].Hist.Sum
			}
			return gs.Nodes[i].Node < gs.Nodes[j].Node
		})
		s.Graphs = append(s.Graphs, *gs)
	}
	sort.Slice(s.Graphs, func(i, j int) bool { return s.Graphs[i].Graph < s.Graphs[j].Graph })

	// Queue-depth streams.
	for key, ser := range *t.streams.Load() {
		ss := StreamSnapshot{Engine: key.kind.String(), Queue: key.queue, Counter: runtime.CounterQueue(key.queue)}
		if last, ok := ser.Last(); ok {
			ss.Last = last.V
		}
		if withSeries {
			ss.Samples = ser.Snapshot()
		}
		s.Streams = append(s.Streams, ss)
	}
	sort.Slice(s.Streams, func(i, j int) bool { return s.Streams[i].Name() < s.Streams[j].Name() })

	// Sheds.
	shedSer := *t.shedSer.Load()
	for key, c := range *t.sheds.Load() {
		sh := ShedSnapshot{Server: key.server, Reason: key.reason, Count: c.Value()}
		if withSeries {
			if ser := shedSer[key]; ser != nil {
				sh.Samples = ser.Snapshot()
			}
		}
		s.Sheds = append(s.Sheds, sh)
	}
	sort.Slice(s.Sheds, func(i, j int) bool {
		if s.Sheds[i].Server != s.Sheds[j].Server {
			return s.Sheds[i].Server < s.Sheds[j].Server
		}
		return s.Sheds[i].Reason < s.Sheds[j].Reason
	})

	// Connection planes, summed per name (a sweep registers one plane
	// per server start; the logical server is the sum).
	t.connMu.Lock()
	connByName := make(map[string]*ConnSnapshot)
	var connOrder []string
	for _, src := range t.connSrc {
		cs := connByName[src.name]
		if cs == nil {
			cs = &ConnSnapshot{Name: src.name}
			connByName[src.name] = cs
			connOrder = append(connOrder, src.name)
		}
		st := src.fn()
		cs.Stats.Accepted += st.Accepted
		cs.Stats.Admitted += st.Admitted
		cs.Stats.Shed += st.Shed
		cs.Stats.Live += st.Live
	}
	t.connMu.Unlock()
	sort.Strings(connOrder)
	for _, name := range connOrder {
		s.Conns = append(s.Conns, *connByName[name])
	}

	// Dynamic-page dispatch, summed per name like the planes.
	t.dynMu.Lock()
	dynByName := make(map[string]*DynPageSnapshot)
	var dynOrder []string
	for _, src := range t.dynSrc {
		ds := dynByName[src.name]
		if ds == nil {
			ds = &DynPageSnapshot{Name: src.name}
			dynByName[src.name] = ds
			dynOrder = append(dynOrder, src.name)
		}
		st := src.fn()
		ds.Stats.Compiled += st.Compiled
		ds.Stats.Interpreted += st.Interpreted
		ds.Stats.FragHits += st.FragHits
		ds.Stats.FragMisses += st.FragMisses
	}
	t.dynMu.Unlock()
	sort.Strings(dynOrder)
	for _, name := range dynOrder {
		s.DynPages = append(s.DynPages, *dynByName[name])
	}

	if withTraces {
		s.Traces = t.Traces()
	}
	return s
}

// Snapshot captures the full telemetry state, including series windows
// and sampled traces.
func (t *Telemetry) Snapshot() Snapshot { return t.snapshot(true, true) }

// Traces renders the sampled-trace ring, oldest first.
func (t *Telemetry) Traces() []TraceSnapshot {
	t.traceMu.Lock()
	raw := make([]flowTrace, 0, t.traceN)
	start := (t.traceNext - t.traceN + traceCap) % traceCap
	for i := 0; i < t.traceN; i++ {
		raw = append(raw, t.traceBuf[(start+i)%traceCap])
	}
	t.traceMu.Unlock()
	out := make([]TraceSnapshot, len(raw))
	for i, tr := range raw {
		ts := TraceSnapshot{
			At:      tr.at,
			Graph:   tr.g.Source.Name,
			PathID:  tr.pathID,
			Outcome: tr.outcome.String(),
			Elapsed: int64(tr.elapsed),
		}
		// A dropped flow's register is partial — it names a route prefix,
		// not a complete path, so a label would lie.
		if tr.outcome != runtime.FlowDropped && tr.pathID < tr.g.NumPaths {
			ts.Path = tr.g.PathLabel(tr.pathID)
		}
		out[i] = ts
	}
	return out
}

// CtrlStreams returns the controller-trajectory streams (ctrl/* on the
// queue-depth surface), with full windows — what exp_overload prints
// and /debug/flux/ctrl serves.
func (t *Telemetry) CtrlStreams() []StreamSnapshot {
	var out []StreamSnapshot
	for key, ser := range *t.streams.Load() {
		if !strings.HasPrefix(key.queue, runtime.CtrlStreamPrefix) {
			continue
		}
		ss := StreamSnapshot{Engine: key.kind.String(), Queue: key.queue, Counter: true, Samples: ser.Snapshot()}
		if last, ok := ser.Last(); ok {
			ss.Last = last.V
		}
		out = append(out, ss)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Observer returns t as a runtime.Observer, and a nil interface for a
// nil t, so an optional Telemetry field composes without the typed-nil
// trap (a nil *Telemetry in an interface is a non-nil observer).
func (t *Telemetry) Observer() runtime.Observer {
	if t == nil {
		return nil
	}
	return t
}

// The compile-time checks that Telemetry covers the whole plane.
var (
	_ runtime.Observer     = (*Telemetry)(nil)
	_ runtime.ShedObserver = (*Telemetry)(nil)
)
