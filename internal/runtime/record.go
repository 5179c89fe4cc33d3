// Package runtime executes compiled Flux programs. It provides the three
// runtime systems of §3.2 — one thread (goroutine) per flow, a fixed
// thread pool with FIFO admission, and an event-driven engine with
// never-blocking dispatchers and asynchronous-I/O offload, at one
// dispatcher (EventDriven) or one per core with work stealing
// (WorkStealing) — behind a single Server API, plus the reentrant reader-writer lock manager that
// implements atomicity constraints with two-phase, canonically ordered
// acquisition (§2.5, §3.1.1).
package runtime

import (
	"errors"
	"fmt"
)

// Record is the tuple of values flowing between nodes. Positions
// correspond to the parameters of the declared Flux signatures; the
// static types are checked by the compiler and the dynamic values are the
// bound Go functions' business (as in the paper, where nodes exchange C
// structs the coordination layer does not interpret).
type Record []any

// Clone returns a shallow copy. Node functions may retain their input
// record, so engines clone when a record fans out.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	copy(out, r)
	return out
}

// ErrStop tells the engine a source is exhausted; its loop exits.
// Long-running servers never return it; bounded workloads and tests do.
var ErrStop = errors.New("flux/runtime: source stopped")

// NodeFunc implements a concrete node: it consumes the input record and
// produces the output record. Returning a non-nil error routes the flow
// to the node's error handler, or terminates it (§2.4).
type NodeFunc func(fl *Flow, in Record) (Record, error)

// SourceFunc produces one record per call to initiate a flow (§2.1). On
// every engine a source runs on a goroutine of its own, called by one
// goroutine at a time, so it may keep unsynchronized state between
// calls. A call blocks until it has a record or fl.Ctx is done, and then
// returns fl.Ctx.Err(): a source that ignores cancellation hangs the
// server's drain. Returning ErrStop retires the source; any other error
// retires it and counts as a node error.
type SourceFunc func(fl *Flow) (Record, error)

// PredicateFunc implements a predicate type (§2.3): an arbitrary boolean
// function applied to one output argument.
type PredicateFunc func(v any) bool

// SessionFunc maps a source record to a session identifier for
// session-scoped constraints (§2.5.1).
type SessionFunc func(rec Record) uint64

// BindingError reports a missing or malformed binding discovered when a
// server is constructed.
type BindingError struct {
	What string // "node", "source", "predicate", "session"
	Name string
	Msg  string
}

func (e *BindingError) Error() string {
	return fmt.Sprintf("flux/runtime: %s %q: %s", e.What, e.Name, e.Msg)
}
