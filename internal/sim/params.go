package sim

import (
	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/telemetry"
)

// FromTelemetry derives simulation parameters from a telemetry plane
// that observed a run of prog, the workflow of §5.1: "the simulator can
// use observed parameters from a running system (per-node execution
// times, source node inter-arrival times, and observed branching
// probabilities)". Only prog's own graphs are read, so the plane may be
// shared with other servers.
//
// The returned Params carry the observed node means and branch
// probabilities for every graph in the program; the caller supplies the
// arrival processes (typically the load level being predicted) and the
// CPU count.
func FromTelemetry(prog *core.Program, t *telemetry.Telemetry) Params {
	params := Params{
		NodeTime:   make(map[string]float64),
		BranchProb: make(map[string][]float64),
		ErrorProb:  make(map[string]float64),
		Sources:    make(map[string]SourceParams),
	}
	for _, g := range prog.Graphs {
		for _, ns := range t.PathProfile(g, telemetry.ByCount, 0).Nodes {
			params.NodeTime[ns.Name] = ns.Mean().Seconds()
		}
		freq := t.EdgeFrequencies(g)
		for _, v := range g.Nodes {
			switch v.Kind {
			case core.FlatBranch:
				var total uint64
				for _, e := range v.Out {
					total += freq[e]
				}
				if total == 0 {
					continue
				}
				probs := make([]float64, len(v.Out))
				for i, e := range v.Out {
					probs[i] = float64(freq[e]) / float64(total)
				}
				params.BranchProb[v.Node.Name] = probs
			case core.FlatExec:
				if v.ErrEdge == nil {
					continue
				}
				errs := freq[v.ErrEdge]
				var total uint64 = errs
				for _, e := range v.Out {
					total += freq[e]
				}
				if total > 0 && errs > 0 {
					params.ErrorProb[v.Node.Name] = float64(errs) / float64(total)
				}
			}
		}
	}
	return params
}
