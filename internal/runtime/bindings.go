package runtime

import (
	"github.com/flux-lang/flux/internal/core"
)

// Bindings associates the names in a Flux program with Go implementations:
// node functions, source functions, predicate functions, and session-id
// functions. There is no "Flux API" a component must adhere to beyond the
// declared signature — any function of the right shape can be bound,
// mirroring the paper's use of unmodified off-the-shelf code.
type Bindings struct {
	nodes    map[string]NodeFunc
	sources  map[string]SourceFunc
	preds    map[string]PredicateFunc
	sessions map[string]SessionFunc
	blocking map[string]bool
}

// NewBindings returns an empty binding set.
func NewBindings() *Bindings {
	return &Bindings{
		nodes:    make(map[string]NodeFunc),
		sources:  make(map[string]SourceFunc),
		preds:    make(map[string]PredicateFunc),
		sessions: make(map[string]SessionFunc),
		blocking: make(map[string]bool),
	}
}

// BindNode implements a concrete node.
func (b *Bindings) BindNode(name string, fn NodeFunc) *Bindings {
	b.nodes[name] = fn
	return b
}

// BindSource implements a source node.
func (b *Bindings) BindSource(name string, fn SourceFunc) *Bindings {
	b.sources[name] = fn
	return b
}

// BindPredicate implements the boolean function behind a predicate
// typedef. The name is the function name from the typedef declaration
// (e.g. "TestInCache"), not the type name.
func (b *Bindings) BindPredicate(name string, fn PredicateFunc) *Bindings {
	b.preds[name] = fn
	return b
}

// BindSession implements a session-id function named in a session
// declaration.
func (b *Bindings) BindSession(name string, fn SessionFunc) *Bindings {
	b.sessions[name] = fn
	return b
}

// MarkBlocking tags a node as performing blocking calls (network or disk
// I/O). The event-driven engine (EventDriven and WorkStealing) offloads
// blocking nodes to its asynchronous-I/O pool instead of running them on
// a dispatcher — the analogue of the paper's LD_PRELOAD interception of
// blocking functions (§3.2.2). Other engines ignore the mark.
func (b *Bindings) MarkBlocking(names ...string) *Bindings {
	for _, n := range names {
		b.blocking[n] = true
	}
	return b
}

// Validate checks that every name the program needs is bound: each
// concrete node (source nodes as sources, others as nodes), each
// predicate function, and each session function. The node stubs that the
// code generator emits keep these aligned in generated projects; Validate
// is the safety net for hand-assembled ones.
func (b *Bindings) Validate(p *core.Program) error {
	sourceNames := make(map[string]bool)
	for _, s := range p.Sources {
		sourceNames[s.Node.Name] = true
	}
	for _, n := range p.ConcreteNodes() {
		if sourceNames[n.Name] {
			if _, ok := b.sources[n.Name]; !ok {
				return &BindingError{What: "source", Name: n.Name, Msg: "not bound (use BindSource)"}
			}
			continue
		}
		if _, ok := b.nodes[n.Name]; !ok {
			return &BindingError{What: "node", Name: n.Name, Msg: "not bound (use BindNode)"}
		}
	}
	for _, td := range p.Typedefs {
		if _, ok := b.preds[td.Func]; !ok {
			return &BindingError{What: "predicate", Name: td.Func, Msg: "not bound (use BindPredicate)"}
		}
	}
	for src, fn := range p.Sessions {
		if _, ok := b.sessions[fn]; !ok {
			return &BindingError{What: "session", Name: fn,
				Msg: "not bound for source " + src + " (use BindSession)"}
		}
	}
	// Blocking marks must name declared non-source concrete nodes: a
	// misspelled MarkBlocking would otherwise be silently ignored and the
	// event-driven dispatcher would block on the node's real I/O.
	nodeNames := make(map[string]bool)
	for _, n := range p.ConcreteNodes() {
		nodeNames[n.Name] = true
	}
	for name := range b.blocking {
		switch {
		case sourceNames[name]:
			return &BindingError{What: "blocking", Name: name,
				Msg: "is a source; sources block on goroutines of their own instead of being offloaded"}
		case !nodeNames[name]:
			return &BindingError{What: "blocking", Name: name,
				Msg: "does not name a concrete node (misspelled MarkBlocking?)"}
		}
	}
	return nil
}
