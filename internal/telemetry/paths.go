package telemetry

// The §5.2 path profile as a view of the plane. The runtime adds one
// Ball-Larus increment per traversed edge, so a flow terminal carries
// the ID of the one route it took through its graph — including routes
// that end at the ERROR terminal (in the paper's BitTorrent peer the
// most frequently executed path is an error path, the empty poll).
// FlowDone counts each terminal into its path's slot; the reports below
// rank those slots and render them, and the per-node statistics come
// from the same node histograms /metrics exposes.

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/runtime"
)

// maxPathSlots caps a graph's per-path slots. Terminals with an ID past
// the cap land in the graph's overflow slots: counted in
// flux_flows_total and a report's Flows, but not ranked. The shipped
// graphs have at most 40 paths.
const maxPathSlots = 1024

// pathSlot is one path's flow count and cumulative time, padded to its
// own cache line so terminals on different paths never false-share.
// out is the outcome of the path's terminal, fixed at registration:
// the runtime reports FlowErrored exactly for paths that end at the
// error terminal, so the outcome counters are sums over slots.
type pathSlot struct {
	n   atomic.Uint64
	ns  atomic.Int64
	out runtime.FlowOutcome
	_   [47]byte
}

// add counts one terminal and returns the slot's new count.
func (s *pathSlot) add(elapsed time.Duration) uint64 {
	s.ns.Add(int64(elapsed))
	return s.n.Add(1)
}

func (s *pathSlot) stat(id uint64) PathStat {
	return PathStat{ID: id, Count: s.n.Load(), Total: time.Duration(s.ns.Load())}
}

// initSlots sizes the path slots from the graph's path count and labels
// each with its terminal's outcome.
func (gt *graphTel) initSlots() {
	gt.paths = make([]pathSlot, min(gt.g.NumPaths, maxPathSlots))
	for id := range gt.paths {
		if nodes := gt.g.DecodePath(uint64(id)); nodes[len(nodes)-1].Kind == core.FlatError {
			gt.paths[id].out = runtime.FlowErrored
		}
	}
	gt.over[1].out = runtime.FlowErrored
	gt.drop.out = runtime.FlowDropped
}

// slot picks where a terminal lands. A drop goes to the drop slot: its
// register is the partial route to the unmatched dispatch and can equal
// a complete path's ID, which it must not inflate. A terminal whose ID
// has no slot, or whose outcome is not its path's, goes to the overflow
// slot of its outcome (an unknown outcome counts as errored).
func (gt *graphTel) slot(pathID uint64, outcome runtime.FlowOutcome) *pathSlot {
	switch {
	case outcome == runtime.FlowDropped:
		return &gt.drop
	case pathID < uint64(len(gt.paths)) && gt.paths[pathID].out == outcome:
		return &gt.paths[pathID]
	case outcome == runtime.FlowCompleted:
		return &gt.over[0]
	default:
		return &gt.over[1]
	}
}

// outcomes sums the slots by outcome (completed, errored, dropped).
func (gt *graphTel) outcomes() (sum [3]uint64) {
	for i := range gt.paths {
		sum[gt.paths[i].out] += gt.paths[i].n.Load()
	}
	for i := range gt.over {
		sum[gt.over[i].out] += gt.over[i].n.Load()
	}
	sum[runtime.FlowDropped] += gt.drop.n.Load()
	return sum
}

// PathStat aggregates one Ball-Larus path.
type PathStat struct {
	ID    uint64
	Count uint64
	Total time.Duration
}

// Mean returns the average flow time on this path.
func (p PathStat) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / time.Duration(p.Count)
}

// NodeStat aggregates one node's executions.
type NodeStat struct {
	Name  string
	Count uint64
	Total time.Duration
}

// Mean returns the average node execution time.
func (n NodeStat) Mean() time.Duration {
	if n.Count == 0 {
		return 0
	}
	return n.Total / time.Duration(n.Count)
}

// SortBy selects the hot-path ranking criterion.
type SortBy int

const (
	// ByCount ranks paths by execution frequency.
	ByCount SortBy = iota
	// ByTotalTime ranks paths by cumulative time — the paper's "most
	// expensive" ranking.
	ByTotalTime
	// ByMeanTime ranks paths by per-execution cost.
	ByMeanTime
)

// PathReport is one ranked row of a hot-path report.
type PathReport struct {
	PathStat
	Label string
}

// GraphReport is one graph's §5.2 profile: the ranked hot paths,
// per-node statistics, and the dropped-flow bucket. The text renderers
// format it, and /debug/flux/paths serializes it as JSON.
type GraphReport struct {
	// Source names the graph (its source node).
	Source string `json:"source"`
	// Flows counts the graph's completed and errored flows, including
	// any whose path ID is past the slot cap.
	Flows uint64 `json:"flows"`
	// DistinctPaths counts the distinct Ball-Larus IDs observed.
	DistinctPaths int `json:"distinctPaths"`
	// Paths lists the ranked hot paths.
	Paths []PathReport `json:"paths"`
	// Nodes lists per-node statistics in bottleneck (total time) order.
	Nodes []NodeStat `json:"nodes"`
	// DroppedFlows / DroppedTotal aggregate flows terminated at an
	// unmatched dispatch case (bucketed apart from complete paths).
	DroppedFlows uint64        `json:"droppedFlows"`
	DroppedTotal time.Duration `json:"droppedTotalNanos"`
}

// Report is every observed graph's profile, sorted by source name.
// Graphs are not merged by name: a path ID only means something within
// the compiled graph that numbered it.
type Report struct {
	Graphs []GraphReport `json:"graphs"`
}

// PathProfile returns one graph's profile with its paths ranked by by;
// a zero limit returns every observed path.
func (t *Telemetry) PathProfile(g *core.FlatGraph, by SortBy, limit int) GraphReport {
	if gt := (*t.graphs.Load())[g]; gt != nil {
		return gt.report(by, limit)
	}
	return GraphReport{Source: g.Source.Name}
}

// PathProfiles returns the profile of every graph the plane has seen —
// the payload of /debug/flux/paths.
func (t *Telemetry) PathProfiles(by SortBy, limit int) Report {
	var rep Report
	for _, gt := range *t.graphs.Load() {
		rep.Graphs = append(rep.Graphs, gt.report(by, limit))
	}
	sort.Slice(rep.Graphs, func(i, j int) bool { return rep.Graphs[i].Source < rep.Graphs[j].Source })
	return rep
}

func (gt *graphTel) report(by SortBy, limit int) GraphReport {
	rep := GraphReport{Source: gt.name, Nodes: gt.nodeStats()}
	var stats []PathStat
	for id := range gt.paths {
		if ps := gt.paths[id].stat(uint64(id)); ps.Count > 0 {
			stats = append(stats, ps)
			rep.Flows += ps.Count
		}
	}
	for i := range gt.over {
		rep.Flows += gt.over[i].n.Load()
	}
	rep.DistinctPaths = len(stats)
	drop := gt.drop.stat(0)
	rep.DroppedFlows, rep.DroppedTotal = drop.Count, drop.Total

	sort.Slice(stats, func(i, j int) bool {
		switch by {
		case ByTotalTime:
			if stats[i].Total != stats[j].Total {
				return stats[i].Total > stats[j].Total
			}
		case ByMeanTime:
			if stats[i].Mean() != stats[j].Mean() {
				return stats[i].Mean() > stats[j].Mean()
			}
		default:
			if stats[i].Count != stats[j].Count {
				return stats[i].Count > stats[j].Count
			}
		}
		return stats[i].ID < stats[j].ID
	})
	if limit > 0 && len(stats) > limit {
		stats = stats[:limit]
	}
	rep.Paths = make([]PathReport, len(stats))
	for i, ps := range stats {
		rep.Paths[i] = PathReport{PathStat: ps, Label: gt.g.PathLabel(ps.ID)}
	}
	return rep
}

// nodeStats sums the node histograms by vertex label, which is the node
// name for exec vertices (a node inlined at several vertices is one
// row), in bottleneck order.
func (gt *graphTel) nodeStats() []NodeStat {
	stats := []NodeStat{}
	byName := make(map[string]int)
	for i := range gt.nodes {
		h := &gt.nodes[i]
		n := h.count.Load()
		if n == 0 {
			continue
		}
		name := gt.g.Nodes[i].Label()
		j, ok := byName[name]
		if !ok {
			j = len(stats)
			byName[name] = j
			stats = append(stats, NodeStat{Name: name})
		}
		stats[j].Count += n
		stats[j].Total += time.Duration(h.sum.Load())
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Total != stats[j].Total {
			return stats[i].Total > stats[j].Total
		}
		return stats[i].Name < stats[j].Name
	})
	return stats
}

// EdgeFrequencies reconstructs how often each edge of the graph was
// traversed from the path counts. The simulator uses this to derive
// branch probabilities from a live run (§5.1: "observed branching
// probabilities").
func (t *Telemetry) EdgeFrequencies(g *core.FlatGraph) map[*core.FlatEdge]uint64 {
	freq := make(map[*core.FlatEdge]uint64)
	gt := (*t.graphs.Load())[g]
	if gt == nil {
		return freq
	}
	for id := range gt.paths {
		count := gt.paths[id].n.Load()
		if count == 0 {
			continue
		}
		nodes := g.DecodePath(uint64(id))
		for i := 0; i+1 < len(nodes); i++ {
			for _, e := range nodes[i].Edges() {
				if e.To == nodes[i+1] {
					freq[e] += count
					break
				}
			}
		}
	}
	return freq
}

// Render formats the hot-path table for reading, in the spirit of the
// §5.2 presentation.
func (r GraphReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Path profile for source %s (%d distinct paths, %d flows):\n",
		r.Source, len(r.Paths), r.Flows)
	fmt.Fprintf(&b, "%4s  %10s  %12s  %12s  %s\n", "#", "count", "total", "mean", "path")
	for i, row := range r.Paths {
		fmt.Fprintf(&b, "%4d  %10d  %12s  %12s  %s\n",
			i+1, row.Count, row.Total.Round(time.Microsecond), row.Mean().Round(time.Nanosecond), row.Label)
	}
	if r.DroppedFlows > 0 {
		fmt.Fprintf(&b, "plus %d flows dropped at dispatch (no matching case), %s total\n",
			r.DroppedFlows, r.DroppedTotal.Round(time.Microsecond))
	}
	return b.String()
}
