package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	flux "github.com/flux-lang/flux"
	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lfu"
	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/netkit"
	"github.com/flux-lang/flux/internal/servers/httpkit"
	"github.com/flux-lang/flux/internal/servers/webserver"
	"github.com/flux-lang/flux/internal/servers/webserver/fscript"
)

// The traced layer replay. End-to-end numbers are taken with no tracing;
// this separate run replays the first ops of a workload's tape in this
// process, one layer at a time, with every call into a layer's public
// functions wrapped in a span. The spans come from here, around the
// calls — nothing inside the repository's packages is instrumented.

// batch is how many flows the batched runtime probes keep in flight.
const batch = 64

// replayResult is what the replay adds to a workload's result.
type replayResult struct {
	metrics map[string]float64 // per-layer timings by metric name
	// parts is the per-request budget along the workload's path, in ns:
	// what reconcile.layers_sum_us adds up.
	parts map[string]float64
}

type replayer struct {
	w        *workload
	ops      []op
	tr       *tracer
	files    *loadgen.FileSet
	hit      []bool   // the static op found its body in the cache
	rendered [][]byte // responses of the dynamic and POST ops
	reqs     []stubReq
	// onCPU is, for the passes whose calls also wait (a write for the
	// peer to drain the socket, a dial for the accept loop to wake), the
	// share of the pass's wall time spent on the processor.
	onCPU map[string]float64
}

// replay runs every probe over the first o.replayOps ops of connection
// 0's tape and writes the trace.
func replay(w *workload, o runOpts) (*replayResult, error) {
	tapes, err := buildTapes(w, o.seed)
	if err != nil {
		return nil, err
	}
	n := min(o.replayOps, len(tapes[0]))
	r := &replayer{
		w: w, ops: tapes[0][:n], files: loadgen.NewFileSet(w.dirs),
		hit: make([]bool, n), rendered: make([][]byte, n), onCPU: map[string]float64{},
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if w.materialize {
		tmp, err := os.MkdirTemp(o.outDir, "replay-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		if err := r.files.Materialize(filepath.Join(tmp, "corpus")); err != nil {
			return nil, err
		}
	}
	overhead := spanOverheadNs()
	// Every op opens at most a dozen spans; the per-engine probes add a
	// few per op on top.
	r.tr = newTracer(n*40 + 4096)

	if err := r.cachePass(tapes[0]); err != nil {
		return nil, err
	}
	r.reqs = make([]stubReq, n)
	for i := range r.ops {
		k := r.ops[i].kind
		r.reqs[i] = stubReq{post: k == opPost, dynamic: k != opStatic, hit: r.hit[i]}
	}
	for _, pass := range []func() error{r.parsePass, r.dynamicPass, r.writePass, r.telemetryPass, r.connPass, r.runtimePass} {
		if err := pass(); err != nil {
			return nil, err
		}
	}
	lockPair, lockPairContended, err := r.lockPass()
	if err != nil {
		return nil, err
	}

	st := r.tr.stats()
	mean := func(key string) float64 { return st[key].mean(overhead) }
	res := &replayResult{metrics: map[string]float64{}, parts: map[string]float64{}}
	m := res.metrics
	m["trace.span_overhead_ns"] = overhead
	m["webserver.parse_ns"] = mean("webserver.parse")
	m["lfu.get_hit_ns"] = mean("lfu.get_hit") + mean("lfu.release")
	m["lfu.put_evict_ns"] = mean("lfu.put")
	m["loadgen.lookup_ns"] = mean("loadgen.lookup")
	m["fscript.render_ns"] = mean("fscript.render")
	m["httpkit.render_ns"] = mean("httpkit.render")
	m["httpkit.static_header_ns"] = mean("httpkit.static_header")
	m["netkit.writevec_ns"] = mean("netkit.writevec")
	m["netkit.sendfile_ns"] = mean("netkit.sendfile")
	m["netkit.write_ns"] = mean("netkit.write")
	m["netkit.accept_admit_ns"] = mean("netkit.accept_admit")
	m["netkit.conn_close_ns"] = mean("netkit.conn_close")
	m["telemetry.flow_done_ns"] = mean("telemetry.flow_done")
	m["telemetry.node_done_ns"] = mean("telemetry.node_done")
	for _, e := range engineNames {
		m["runtime.flow_ns."+e] = mean("runtime.flow." + e)
		m["runtime.flow_ns_batched."+e] = mean("runtime.flow_batch."+e) / batch
		m["runtime.hop_gap_ns."+e] = mean("runtime.hop_gap." + e)
		m["runtime.inject_to_first_node_ns."+e] = mean("runtime.inject_to_first_node." + e)
	}
	var hops int
	for i := range r.ops {
		hops += r.lockHops(i)
	}
	hopsPerReq := float64(hops) / float64(n)
	m["runtime.lock_hops_per_req"] = hopsPerReq
	m["runtime.lock_pair_ns"] = lockPair / hopsPerReq
	m["runtime.lock_pair_contended_ns"] = lockPairContended / hopsPerReq

	// The budget: what one request of this workload spends in each layer.
	// Tape-driven passes opened spans only for the ops that reach the
	// layer, so their total over all ops is already weighted by that
	// share. The lock manager's cost is inside runtime (the stub graph
	// keeps its constraints).
	perReq := func(keys ...string) float64 {
		var ns float64
		for _, k := range keys {
			ns += st[k].total(overhead)
		}
		return ns / float64(n)
	}
	connShare := 1.0 / serverMaxKeepAlive
	if w.loop == closedFresh {
		connShare = 1
	}
	p := res.parts
	p["webserver.parse"] = perReq("webserver.parse")
	p["runtime.flow_batched"] = m["runtime.flow_ns_batched."+w.engine]
	p["lfu"] = perReq("lfu.get_hit", "lfu.get_miss", "lfu.put", "lfu.release")
	p["loadgen.lookup"] = perReq("loadgen.lookup")
	p["fscript.render"] = perReq("fscript.render")
	p["httpkit.render"] = perReq("httpkit.render")
	// Spans are wall time and the budget is set against processor time,
	// so the two parts that wait are scaled by their pass's on-CPU share.
	p["netkit.write"] = perReq("netkit.writevec", "netkit.sendfile", "netkit.write") * r.onCPU["write"] // header lookup inside
	p["telemetry"] = perReq("telemetry.flow_done", "telemetry.node_done")
	p["netkit.conn"] = (m["netkit.accept_admit_ns"] + m["netkit.conn_close_ns"]) * connShare * r.onCPU["conn"]

	path := filepath.Join(o.outDir, "trace-"+w.name+".json")
	if err := r.tr.write(path, w.name, o.seed, n, overhead); err != nil {
		return nil, err
	}
	return res, nil
}

// cachePass replays the tape's key sequence against an LFU of the
// workload's capacity, the way CheckCache, ReadFile, StoreInCache and
// Complete call it. One untimed cycle of the whole tape first brings the
// cache to the state the warmed server has.
func (r *replayer) cachePass(tape []op) error {
	capacity := r.w.cacheBytes
	if capacity == 0 {
		capacity = 64 << 20
	}
	cache := lfu.New(capacity)
	for i := range tape {
		o := &tape[i]
		if o.kind != opStatic {
			continue
		}
		if _, ok := cache.Get(o.path); !ok {
			body, found := r.files.Lookup(o.path)
			if !found {
				return fmt.Errorf("replay: corpus has no %s", o.path)
			}
			if o.sendfile {
				continue
			}
			cache.Put(o.path, body)
		}
		cache.Release(o.path)
	}
	for i := range r.ops {
		o := &r.ops[i]
		if o.kind != opStatic {
			continue
		}
		id := r.tr.begin(i, -1, "lfu", "get_miss")
		_, ok := cache.Get(o.path)
		r.tr.end(id)
		if ok {
			r.tr.spans[id].Name = "get_hit"
			r.hit[i] = true
		} else {
			id = r.tr.begin(i, -1, "loadgen", "lookup")
			body, _ := r.files.Lookup(o.path)
			r.tr.end(id)
			if o.sendfile {
				continue // streamed from disk: never cached, no reference to release
			}
			id = r.tr.begin(i, -1, "lfu", "put")
			cache.Put(o.path, body)
			r.tr.end(id)
		}
		id = r.tr.begin(i, -1, "lfu", "release")
		cache.Release(o.path)
		r.tr.end(id)
	}
	return nil
}

func (r *replayer) parsePass() error {
	rd := bytes.NewReader(nil)
	br := bufio.NewReaderSize(rd, 4096)
	for i := range r.ops {
		rd.Reset(r.ops[i].req)
		br.Reset(rd)
		id := r.tr.begin(i, -1, "webserver", "parse")
		_, err := webserver.ParseRequest(br)
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("replay: parse op %d: %w", i, err)
		}
	}
	return nil
}

// dynamicPass renders the dynamic pages and the POST confirmation the way
// RunScript and HandlePost do, and keeps the responses for writePass.
func (r *replayer) dynamicPass() error {
	pages, err := fscript.NewBenchPages()
	if err != nil {
		return err
	}
	for i := range r.ops {
		o := &r.ops[i]
		switch o.kind {
		case opAd, opDyn:
			buf := fscript.GetBuf()
			id := r.tr.begin(i, -1, "fscript", "render")
			out, err := pages.RenderTo(buf.B, o.path, o.query, dynamicWork)
			r.tr.end(id)
			if err != nil {
				return fmt.Errorf("replay: render op %d: %w", i, err)
			}
			id = r.tr.begin(i, -1, "httpkit", "render")
			r.rendered[i] = httpkit.Render(200, "OK", "text/html", out)
			r.tr.end(id)
			buf.B = out[:0]
			fscript.PutBuf(buf)
		case opPost:
			id := r.tr.begin(i, -1, "httpkit", "render")
			r.rendered[i] = httpkit.RenderPostConfirm(o.path, len(o.postBody))
			r.tr.end(id)
		}
	}
	return nil
}

// connProbe is a bare connection plane whose Admit hands the pooled Conn
// to the replay: the only way to hold a netkit.Conn outside the package.
type connProbe struct {
	plane    *netkit.Plane
	admitted chan *netkit.Conn
	admitAt  int64 // when Admit was entered; written before the send on admitted
}

func newConnProbe() (*connProbe, error) {
	p := &connProbe{admitted: make(chan *netkit.Conn, 1)}
	plane, err := netkit.Listen(netkit.Config{
		WriteTimeout: 5 * time.Second, // the server's: arming the deadline is part of a write
		Admit: func(c *netkit.Conn) error {
			p.admitAt = nowNs()
			p.admitted <- c
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	if err := plane.Start(context.Background()); err != nil {
		return nil, err
	}
	p.plane = plane
	return p, nil
}

func (p *connProbe) close() {
	ctx, cancel := context.WithTimeout(context.Background(), childExitGrace)
	defer cancel()
	_ = p.plane.Shutdown(ctx) // a probe plane with no live connection; nothing to report
}

// onThread runs pass on a thread of its own and records the share of its
// wall time that the thread (process false) or the whole process
// (process true: the work is spread over goroutines) was on a processor.
func (r *replayer) onThread(key string, process bool, pass func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu := threadCPUNs
	if process {
		cpu = func() int64 { return selfCPUUs() * 1000 }
	}
	c0, t0 := cpu(), nowNs()
	err := pass()
	used, wall := cpu()-c0, nowNs()-t0
	r.onCPU[key] = 1
	if used > 0 && used < wall {
		r.onCPU[key] = float64(used) / float64(wall)
	}
	return err
}

// writePass sends every response over a loopback pair the way
// SendResponse does: interned header plus body in one writev, large
// materialized bodies with sendfile, rendered responses in one write.
func (r *replayer) writePass() error {
	return r.onThread("write", false, r.writeAll)
}

func (r *replayer) writeAll() error {
	probe, err := newConnProbe()
	if err != nil {
		return err
	}
	defer probe.close()
	peer, err := net.Dial("tcp", probe.plane.Addr())
	if err != nil {
		return err
	}
	c := <-probe.admitted
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		_, _ = io.Copy(io.Discard, peer) // ends when the writer closes
	}()
	defer func() {
		c.Close()
		drained.Wait()
		peer.Close()
	}()

	header := func(i int, parent int32, size int) []byte {
		id := r.tr.begin(i, parent, "httpkit", "static_header")
		head := httpkit.StaticHeader(200, "OK", "text/html", size, false)
		r.tr.end(id)
		return head
	}
	for i := range r.ops {
		o := &r.ops[i]
		var err error
		switch {
		case o.kind != opStatic:
			id := r.tr.begin(i, -1, "netkit", "write")
			_, err = c.Write(r.rendered[i])
			r.tr.end(id)
		case o.sendfile:
			name, size, ok := r.files.DiskPath(o.path)
			if !ok {
				return fmt.Errorf("replay: %s is not materialized", o.path)
			}
			id := r.tr.begin(i, -1, "netkit", "sendfile")
			head := header(i, id, int(size))
			var f *os.File
			if f, err = os.Open(name); err == nil {
				err = c.SendFile(head, f, size)
				f.Close()
			}
			r.tr.end(id)
		default:
			id := r.tr.begin(i, -1, "netkit", "writevec")
			err = c.WriteVec(header(i, id, len(o.body)), o.body)
			r.tr.end(id)
		}
		if err != nil {
			return fmt.Errorf("replay: write op %d: %w", i, err)
		}
	}
	return nil
}

// pathNodes lists the concrete nodes a request of op i executes.
func (r *replayer) pathNodes(i int) []string {
	switch o := &r.ops[i]; {
	case o.kind == opPost:
		return []string{"ReadRequest", "CheckCache", "HandlePost", "SendResponse", "Complete"}
	case o.kind != opStatic:
		return []string{"ReadRequest", "CheckCache", "RunScript", "SendResponse", "Complete"}
	case r.hit[i]:
		return []string{"ReadRequest", "CheckCache", "SendResponse", "Complete"}
	default:
		return []string{"ReadRequest", "CheckCache", "ReadFile", "StoreInCache", "SendResponse", "Complete"}
	}
}

// lockHops counts the nodes on op i's path that run under the cache
// constraint.
func (r *replayer) lockHops(i int) int {
	hops := 0
	for _, n := range r.pathNodes(i) {
		if n == "CheckCache" || n == "StoreInCache" || n == "Complete" {
			hops++
		}
	}
	return hops
}

// telemetryPass records what the always-on plane records per request: one
// flow terminal and one completion per node on the path.
func (r *replayer) telemetryPass() error {
	prog, err := flux.Compile("webserver.flux", webserver.FluxSource)
	if err != nil {
		return err
	}
	g := prog.Graphs["Listen"]
	exec := map[string]*flux.FlatNode{}
	for _, v := range g.Nodes {
		if v.Kind == core.FlatExec {
			exec[v.Node.Name] = v
		}
	}
	tel := flux.NewTelemetry()
	for i := range r.ops {
		nodes := r.pathNodes(i)
		for _, name := range nodes {
			id := r.tr.begin(i, -1, "telemetry", "node_done")
			tel.NodeDone(g, exec[name], 2*time.Microsecond)
			r.tr.end(id)
		}
		id := r.tr.begin(i, -1, "telemetry", "flow_done")
		tel.FlowDone(g, uint64(len(nodes)), flux.FlowCompleted, 20*time.Microsecond)
		r.tr.end(id)
	}
	return nil
}

// connPass times what a fresh connection costs the plane: dial until
// Admit is entered, and Conn.Close. Keep-alive workloads reconnect once
// per serverMaxKeepAlive requests, so they take that share of the ops.
func (r *replayer) connPass() error {
	return r.onThread("conn", true, r.connAll)
}

func (r *replayer) connAll() error {
	probe, err := newConnProbe()
	if err != nil {
		return err
	}
	defer probe.close()
	step := serverMaxKeepAlive
	if r.w.loop == closedFresh {
		step = 1
	}
	for i := 0; i < len(r.ops); i += step {
		id := r.tr.begin(i, -1, "netkit", "accept_admit")
		peer, err := net.Dial("tcp", probe.plane.Addr())
		if err != nil {
			return err
		}
		c := <-probe.admitted
		r.tr.spans[id].End = probe.admitAt
		id = r.tr.begin(i, -1, "netkit", "conn_close")
		c.Close()
		r.tr.end(id)
		peer.Close()
	}
	return nil
}

// stubReq stands in for the connection and the request in the stub-body
// graph: the flags steer the predicate dispatch down the op's real path.
type stubReq struct {
	post, dynamic, hit bool
	done               chan *stubReq
	stamp              bool // record node entry and exit times
	n                  int
	in, out            [8]int64
}

func (q *stubReq) enter() {
	if q.stamp {
		q.in[q.n] = nowNs()
	}
}

func (q *stubReq) leave() {
	if q.stamp {
		q.out[q.n] = nowNs()
		q.n++
	}
}

// stubGraph is a Flux program running on one engine with bodies that do
// nothing, so that a flow's time is the runtime's alone.
type stubGraph struct {
	srv *flux.Server
	src *flux.SourceHandle
}

// newStubGraph compiles src (the web server's program, or a variant of
// it) with stub bodies, the same blocking marks and the same pool size as
// the server under test, and no observer: telemetryPass times the
// observer's calls separately.
func newStubGraph(src, engine string) (*stubGraph, error) {
	prog, err := flux.Compile("stub.flux", src)
	if err != nil {
		return nil, err
	}
	pass := func(fl *flux.Flow, in flux.Record) (flux.Record, error) {
		q := in[2].(*stubReq)
		q.enter()
		q.leave()
		return in, nil
	}
	sink := func(fl *flux.Flow, in flux.Record) (flux.Record, error) { return nil, nil }
	b := flux.NewBindings().
		BindSource("Listen", func(fl *flux.Flow) (flux.Record, error) { return nil, flux.ErrStop }).
		BindNode("ReadRequest", func(fl *flux.Flow, in flux.Record) (flux.Record, error) {
			q := in[0].(*stubReq)
			q.enter()
			out := fl.NewRecord(3)
			out[0], out[1], out[2] = q, false, q
			q.leave()
			return out, nil
		}).
		BindNode("CheckCache", pass).BindNode("ReadFile", pass).BindNode("StoreInCache", pass).
		BindNode("RunScript", pass).BindNode("HandlePost", pass).BindNode("SendResponse", pass).
		BindNode("Complete", func(fl *flux.Flow, in flux.Record) (flux.Record, error) {
			q := in[2].(*stubReq)
			q.enter()
			q.leave()
			q.done <- q
			return nil, nil
		}).
		BindNode("Discard", sink).BindNode("FourOhFour", sink).BindNode("Cleanup", sink).
		BindPredicate("TestPost", func(v any) bool { return v.(*stubReq).post }).
		BindPredicate("TestDynamic", func(v any) bool { return v.(*stubReq).dynamic }).
		BindPredicate("TestInCache", func(v any) bool { return v.(*stubReq).hit }).
		MarkBlocking("ReadRequest", "SendResponse", "RunScript", "HandlePost")
	srv, err := flux.New(prog, b, flux.WithEngine(engineKind(engine)), flux.WithPoolSize(poolSize), flux.WithKeepAlive())
	if err != nil {
		return nil, err
	}
	if err := srv.Start(context.Background()); err != nil {
		return nil, err
	}
	h, err := srv.Source("Listen")
	if err != nil {
		return nil, err
	}
	return &stubGraph{srv: srv, src: h}, nil
}

func (sg *stubGraph) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), childExitGrace)
	defer cancel()
	if err := sg.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("replay: stub graph shutdown: %w", err)
	}
	return sg.srv.Wait()
}

// runBatch pushes one batch of flows through the graph and waits for all
// of them.
func (sg *stubGraph) runBatch(reqs []stubReq, done chan *stubReq) error {
	for i := range reqs {
		reqs[i].done = done
		if err := sg.src.Inject(flux.Record{&reqs[i]}); err != nil {
			return err
		}
	}
	for range reqs {
		<-done
	}
	return nil
}

// runtimePass times the runtime alone on each engine, each flow taking
// its op's path through the stub graph: one flow at a time (inject and
// wait), the same with the bodies stamping entry and exit for the gap
// between consecutive nodes, batch flows in flight, and the way from
// Reinject on a connection plane into the first body.
func (r *replayer) runtimePass() error {
	done := make(chan *stubReq, batch)
	for _, e := range engineNames {
		sg, err := newStubGraph(webserver.FluxSource, e)
		if err != nil {
			return err
		}
		for i := range r.reqs {
			q := &r.reqs[i]
			q.done = done
			id := r.tr.begin(i, -1, "runtime", "flow."+e)
			err := sg.src.Inject(flux.Record{q})
			if err == nil {
				<-done
			}
			r.tr.end(id)
			if err != nil {
				return err
			}
		}
		for i := range r.reqs {
			q := &r.reqs[i]
			q.stamp, q.n = true, 0
			if err := sg.src.Inject(flux.Record{q}); err != nil {
				return err
			}
			<-done
			q.stamp = false
			// The gaps become spans after the fact. Only the workload's
			// own engine keeps its request id, to hold the trace's size.
			req := -1
			if e == r.w.engine {
				req = i
			}
			for k := 1; k < q.n; k++ {
				r.tr.add(req, "runtime", "hop_gap."+e, q.out[k-1], q.in[k])
			}
		}
		for lo := 0; lo+batch <= len(r.reqs) && err == nil; lo += batch {
			id := r.tr.begin(-1, -1, "runtime", "flow_batch."+e)
			err = sg.runBatch(r.reqs[lo:lo+batch], done)
			r.tr.end(id)
		}
		if cerr := sg.close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = r.injectPass(e)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// oneNodeSource is the smallest program a connection plane can feed.
const oneNodeSource = `
Listen () => (conn c);
Handle (conn c) => ();
source Listen => Handle;
`

// injectPass times a connection's way from the plane into the graph:
// FluxPlane.Reinject (the keep-alive re-registration; fresh accepts take
// the same Inject) until the first node's body runs.
func (r *replayer) injectPass(engine string) error {
	type entry struct {
		c  *netkit.Conn
		at int64
	}
	entered := make(chan entry, 1)
	prog, err := flux.Compile("onenode.flux", oneNodeSource)
	if err != nil {
		return err
	}
	b := flux.NewBindings().
		BindSource("Listen", func(fl *flux.Flow) (flux.Record, error) { return nil, flux.ErrStop }).
		BindNode("Handle", func(fl *flux.Flow, in flux.Record) (flux.Record, error) {
			entered <- entry{c: in[0].(*netkit.Conn), at: nowNs()}
			return nil, nil
		}).
		MarkBlocking("Handle") // ReadRequest, the server's first node, is blocking too
	srv, err := flux.New(prog, b, flux.WithEngine(engineKind(engine)), flux.WithPoolSize(poolSize), flux.WithKeepAlive())
	if err != nil {
		return err
	}
	fp, err := netkit.NewFluxPlane(srv, "Listen", netkit.Config{})
	if err != nil {
		return err
	}
	if err := fp.Start(context.Background()); err != nil {
		return err
	}
	peer, err := net.Dial("tcp", fp.Addr())
	if err != nil {
		return err
	}
	c := (<-entered).c
	for i := 0; i < len(r.ops); i++ {
		id := r.tr.begin(-1, -1, "runtime", "inject_to_first_node."+engine)
		fp.Reinject(c)
		r.tr.spans[id].End = (<-entered).at
	}
	c.Close()
	peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), childExitGrace)
	defer cancel()
	if err := fp.Shutdown(ctx); err != nil {
		return fmt.Errorf("replay: one-node plane shutdown: %w", err)
	}
	return fp.Wait()
}

// lockPass prices one acquire/release pair of the lock manager.
// runtime.Flow cannot be built outside its package, so the price is a
// difference: the stub graph with and without its `atomic` lines, batch
// flows in flight on the thread-pool engine, per flow — first with one
// injector, then with one per generator connection contending for the
// constraint. The caller divides by the constrained hops per request.
// Rounds alternate between the two graphs and the medians are compared.
func (r *replayer) lockPass() (single, contended float64, err error) {
	var unlocked []string
	for _, line := range strings.Split(webserver.FluxSource, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "atomic ") {
			unlocked = append(unlocked, line)
		}
	}
	with, err := newStubGraph(webserver.FluxSource, "threadpool")
	if err != nil {
		return 0, 0, err
	}
	without, err := newStubGraph(strings.Join(unlocked, "\n"), "threadpool")
	if err != nil {
		return 0, 0, err
	}
	const rounds = 5
	cost := func(injectors int) (float64, error) {
		// A flow owns its request while in flight: one copy per injector.
		lists := [][]stubReq{r.reqs}
		for len(lists) < injectors {
			lists = append(lists, slices.Clone(r.reqs))
		}
		var withNs, withoutNs []float64
		for round := 0; round < rounds; round++ {
			for _, arm := range []struct {
				sg   *stubGraph
				name string
				out  *[]float64
			}{{with, "lock_round.atomic", &withNs}, {without, "lock_round.plain", &withoutNs}} {
				id := r.tr.begin(-1, -1, "runtime", arm.name)
				err := arm.sg.flood(lists)
				r.tr.end(id)
				if err != nil {
					return 0, err
				}
				s := &r.tr.spans[id]
				flows := len(r.reqs) / batch * batch * injectors
				*arm.out = append(*arm.out, float64(s.End-s.Start)/float64(flows))
			}
		}
		return median(withNs) - median(withoutNs), nil
	}
	if single, err = cost(1); err == nil {
		contended, err = cost(numConns())
	}
	for _, sg := range []*stubGraph{with, without} {
		if cerr := sg.close(); err == nil {
			err = cerr
		}
	}
	return single, contended, err
}

// flood runs one op list per injector goroutine through the graph at
// once, batch flows in flight per injector.
func (sg *stubGraph) flood(lists [][]stubReq) error {
	errs := make(chan error, len(lists))
	for _, own := range lists {
		go func() {
			done := make(chan *stubReq, batch)
			var err error
			for lo := 0; lo+batch <= len(own) && err == nil; lo += batch {
				err = sg.runBatch(own[lo:lo+batch], done)
			}
			errs <- err
		}()
	}
	var err error
	for range lists {
		if e := <-errs; err == nil {
			err = e
		}
	}
	return err
}
