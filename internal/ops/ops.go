// Package ops serves a telemetry plane's live views over HTTP. It is
// kept apart from the runtime and from telemetry so that net/http is
// linked only into the programs that serve the endpoint.
package ops

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"

	"github.com/flux-lang/flux/internal/telemetry"
)

// Server is the running ops endpoint: one HTTP listener carrying the
// telemetry plane's live views.
//
//	/metrics                Prometheus text exposition
//	/debug/pprof/*          net/http/pprof (profile, heap, goroutine, ...)
//	/debug/flux/summary     the full Snapshot (fluxtop's feed)
//	/debug/flux/paths       the §5.2 path profile: ranked hot paths
//	/debug/flux/nodes       per-node latency histograms
//	/debug/flux/ctrl        SLO-controller trajectory windows
//	/debug/flux/sheds       shed counters and trajectories
//	/debug/flux/conns       connection-plane admission counters
//	/debug/flux/dynpages    dynamic-page dispatch counters
//	/debug/flux/traces      sampled flow traces
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve opens the ops listener on addr ("" or ":0" pick a port; see
// Addr) and serves until Close. The handlers only read the telemetry
// plane's lock-free aggregate, so scraping a loaded server is safe.
func Serve(addr string, t *telemetry.Telemetry) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.WriteMetrics(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/flux/summary", handleJSON(func() any { return t.Snapshot() }))
	mux.HandleFunc("/debug/flux/paths", handleJSON(func() any { return t.PathProfiles(telemetry.ByCount, 0) }))
	mux.HandleFunc("/debug/flux/nodes", handleJSON(func() any { return t.Snapshot().Graphs }))
	mux.HandleFunc("/debug/flux/ctrl", handleJSON(func() any { return t.CtrlStreams() }))
	mux.HandleFunc("/debug/flux/sheds", handleJSON(func() any { return t.Snapshot().Sheds }))
	mux.HandleFunc("/debug/flux/conns", handleJSON(func() any { return t.Snapshot().Conns }))
	mux.HandleFunc("/debug/flux/dynpages", handleJSON(func() any { return t.Snapshot().DynPages }))
	mux.HandleFunc("/debug/flux/traces", handleJSON(func() any { return t.Traces() }))

	o := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = o.srv.Serve(ln) }()
	return o, nil
}

// Addr returns the bound listen address.
func (o *Server) Addr() string { return o.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (o *Server) Close() error { return o.srv.Close() }

func handleJSON(fn func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(fn())
	}
}
