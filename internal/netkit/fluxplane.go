package netkit

import (
	"context"
	"net"

	"github.com/flux-lang/flux/internal/runtime"
)

// FluxPlane binds a Flux runtime server to a connection plane: the
// canonical wiring of a netkit-admitted Flux server, shared by the web
// and image servers so the admission path, shutdown ordering, and
// keep-alive re-registration policy live in exactly one place.
// Admission injects each accepted connection as a flow on the named
// source's graph through a pre-resolved SourceHandle — the runtime's
// external-admission fast path.
type FluxPlane struct {
	rt    *runtime.Server
	src   *runtime.SourceHandle
	plane *Plane
}

// NewFluxPlane resolves the admission source on rt and opens the
// plane. cfg.Admit is owned by the binding (injection through the
// handle); cfg.Gate should come from NewGateObserver so the runtime's
// observer plane includes it and queue sampling runs.
func NewFluxPlane(rt *runtime.Server, source string, cfg Config) (*FluxPlane, error) {
	fp := &FluxPlane{rt: rt}
	h, err := rt.Source(source)
	if err != nil {
		return nil, err
	}
	fp.src = h
	cfg.Admit = fp.admit
	if fp.plane, err = Listen(cfg); err != nil {
		return nil, err
	}
	return fp, nil
}

// admit injects a fresh connection into the graph — the only way flows
// enter a plane-fronted server.
func (fp *FluxPlane) admit(c *Conn) error {
	return fp.src.Inject(c.rec[:])
}

// AdmitDialed adopts an outbound connection the server dialed itself
// onto the plane and injects it through the same source fresh accepts
// take — so a peer-to-peer server's dialed and accepted connections
// share one admission path, one tracked-conn sweep, and one shed
// ledger.
func (fp *FluxPlane) AdmitDialed(nc net.Conn) error {
	return fp.plane.AdoptAndAdmit(nc)
}

// Continue re-admits a live connection from inside fl, the flow that
// just answered on it: keep-alive re-registration. Where the runtime
// can (runtime.SourceHandle.Continue), the next request is read on the
// goroutine already running; otherwise — and always with a nil fl — it
// takes the Inject path fresh accepts take. A refusal (the server is
// draining) drops the connection through the plane, which counts and
// reports it.
func (fp *FluxPlane) Continue(fl *runtime.Flow, c *Conn) {
	if err := fp.src.Continue(fl, c.rec[:]); err != nil {
		fp.plane.DropConn(c, "closed")
	}
}

// Reinject re-admits a live connection from outside any flow: Continue
// with no flow to continue on.
func (fp *FluxPlane) Reinject(c *Conn) { fp.Continue(nil, c) }

// Addr returns the bound listen address.
func (fp *FluxPlane) Addr() string { return fp.plane.Addr() }

// Gate returns the admission gate (nil when unbounded).
func (fp *FluxPlane) Gate() *Gate { return fp.plane.cfg.Gate }

// Plane returns the underlying connection plane — the controller
// adapts its conn cap, and owners shed timed-out connections through
// it.
func (fp *FluxPlane) Plane() *Plane { return fp.plane }

// CountShed records a shed whose close is owned elsewhere — the path
// for server-side read timeouts (slow-loris heads, dead keep-alive
// peers), where the flow's own error terminal closes the connection
// and the plane must only account for it.
func (fp *FluxPlane) CountShed(reason string) { fp.plane.CountShed(reason) }

// Overloaded reports the gate's overload state (false without a gate).
func (fp *FluxPlane) Overloaded() bool { return fp.plane.Overloaded() }

// PlaneStats returns the plane's admission counters.
func (fp *FluxPlane) PlaneStats() StatsSnapshot { return fp.plane.Stats() }

// Start launches the runtime, then the accept loop — admission must be
// live before the first connection is injected.
func (fp *FluxPlane) Start(ctx context.Context) error {
	if err := fp.rt.Start(ctx); err != nil {
		return err
	}
	return fp.plane.Start(ctx)
}

// Shutdown stops the plane first — accepts stop and live connections
// are interrupted, so flows blocked reading idle keep-alive clients
// reach their error terminals — then the runtime stops admitting and
// drains in-flight flows until their terminals or ctx expires.
// Re-registrations racing the shutdown are refused by Inject and their
// connections dropped and counted.
func (fp *FluxPlane) Shutdown(ctx context.Context) error {
	err := fp.plane.Shutdown(ctx)
	if err2 := fp.rt.Shutdown(ctx); err == nil {
		err = err2
	}
	return err
}

// Wait blocks until the runtime's run ends and the accept loop has
// retired, returning the run's error.
func (fp *FluxPlane) Wait() error {
	err := fp.rt.Wait()
	_ = fp.plane.Wait()
	return err
}
