package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// span is one timed call into a layer. Spans of op i share request id i
// under a synthetic "request" parent; probes that belong to no single op
// carry request -1.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1: none
	Req    int32  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in a buffer allocated before the first one is
// recorded and writes them out when the replay ends.
type tracer struct {
	spans []span
}

func newTracer(room int) *tracer { return &tracer{spans: make([]span, 0, room)} }

// begin opens a span; the clock is read last so that the bookkeeping is
// outside the span.
func (t *tracer) begin(req int, parent int32, layer, name string) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: int32(req), Layer: layer, Name: name})
	t.spans[id].Start = nowNs()
	return id
}

// end closes a span; the clock is read first.
func (t *tracer) end(id int32) {
	e := nowNs()
	t.spans[id].End = e
}

// add records a span whose ends were stamped elsewhere.
func (t *tracer) add(req int, layer, name string, start, end int64) {
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans)), Parent: -1, Req: int32(req), Layer: layer, Name: name, Start: start, End: end,
	})
}

// spanOverheadNs measures an empty span: the two clock reads every span
// pays, subtracted from each reported duration.
func spanOverheadNs() float64 {
	const n = 20000
	t := newTracer(n)
	for i := 0; i < n; i++ {
		t.end(t.begin(-1, -1, "trace", "empty"))
	}
	var total int64
	for i := range t.spans {
		total += t.spans[i].End - t.spans[i].Start
	}
	return float64(total) / n
}

// spanStat aggregates the spans of one (layer, name).
type spanStat struct {
	count int
	ns    int64
}

// mean is the mean duration of one call, span overhead taken off.
func (s spanStat) mean(overhead float64) float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.ns)/float64(s.count) - overhead
}

// total is the summed duration, span overhead taken off.
func (s spanStat) total(overhead float64) float64 {
	return float64(s.ns) - overhead*float64(s.count)
}

// stats sums the spans by "layer.name".
func (t *tracer) stats() map[string]spanStat {
	out := map[string]spanStat{}
	for i := range t.spans {
		s := &t.spans[i]
		st := out[s.Layer+"."+s.Name]
		st.count++
		st.ns += s.End - s.Start
		out[s.Layer+"."+s.Name] = st
	}
	return out
}

// traceFile is the layout of trace-<workload>.json.
type traceFile struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Ops            int     `json:"ops"`
	SpanOverheadNs float64 `json:"span_overhead_ns"`
	Timeline       string  `json:"timeline"`
	Spans          []span  `json:"spans"`
}

// write adds the synthetic request parents and writes the trace. The
// layers were replayed one after another over the whole tape, so the
// spans of one request are not next to each other in time: a request
// parent starts with its first child and lasts as long as its children
// together.
func (t *tracer) write(path, workload string, seed int64, ops int, overhead float64) error {
	parents := make([]span, ops)
	seen := make([]bool, ops)
	base := int32(len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.Req < 0 || s.Parent >= 0 {
			continue
		}
		p := &parents[s.Req]
		if !seen[s.Req] {
			seen[s.Req] = true
			*p = span{ID: base + s.Req, Parent: -1, Req: s.Req, Layer: "bench", Name: "request", Start: s.Start, End: s.Start}
		}
		p.End += s.End - s.Start
		s.Parent = p.ID
	}
	all := t.spans
	for i := range parents {
		if seen[i] {
			all = append(all, parents[i])
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(traceFile{
		Workload: workload, Seed: seed, Ops: ops, SpanOverheadNs: overhead,
		Timeline: "start_ns/end_ns are monotonic nanoseconds since the replay process started; layers are replayed pass by pass, so a request span (layer bench) is synthetic: it starts with its first child and lasts the sum of its direct children",
		Spans:    all,
	})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
