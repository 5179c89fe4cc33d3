package core_test

// Golden-program tests: the four servers of Table 1 must compile
// cleanly, with the structural properties the paper describes. These run
// against the same FluxSource constants the servers execute, so any
// grammar or compiler regression that would break a shipped server
// breaks here first.

import (
	"strings"
	"testing"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lang/parser"
	"github.com/flux-lang/flux/internal/servers/bittorrent"
	"github.com/flux-lang/flux/internal/servers/gameserver"
	"github.com/flux-lang/flux/internal/servers/imageserver"
	"github.com/flux-lang/flux/internal/servers/webserver"
)

func compileGolden(t *testing.T, name, src string) *core.Program {
	t.Helper()
	astProg, err := parser.Parse(name, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := core.Build(astProg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestGoldenImageServer(t *testing.T) {
	p := compileGolden(t, "imageserver.flux", imageserver.FluxSource)
	if len(p.Sources) != 1 {
		t.Errorf("sources = %d", len(p.Sources))
	}
	if len(p.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", p.Warnings)
	}
	g := p.Graphs["Listen"]
	if g.NumPaths != 11 {
		t.Errorf("paths = %d, want 11", g.NumPaths)
	}
	if names := p.ConstraintNames(); len(names) != 1 || names[0] != "cache" {
		t.Errorf("constraints = %v", names)
	}
}

func TestGoldenWebServer(t *testing.T) {
	p := compileGolden(t, "webserver.flux", webserver.FluxSource)
	if len(p.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", p.Warnings)
	}
	g := p.Graphs["Listen"]
	// Three dispatch outcomes (dynamic / hit / miss), several handlers.
	if g.NumPaths < 10 {
		t.Errorf("paths = %d, want >= 10", g.NumPaths)
	}
	var labels []string
	for id := uint64(0); id < g.NumPaths; id++ {
		labels = append(labels, g.PathLabel(id))
	}
	all := strings.Join(labels, "\n")
	for _, want := range []string{"RunScript", "ReadFile -> StoreInCache", "FourOhFour", "Cleanup"} {
		if !strings.Contains(all, want) {
			t.Errorf("no path mentions %s:\n%s", want, all)
		}
	}
}

func TestGoldenBitTorrent(t *testing.T) {
	p := compileGolden(t, "bittorrent.flux", bittorrent.FluxSource)
	if len(p.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", p.Warnings)
	}
	if len(p.Sources) != 5 {
		t.Errorf("sources = %d, want 5 (Listen, Poll, 3 timers)", len(p.Sources))
	}
	// The message loop dispatches on ten predicate types plus catch-all.
	msg := p.Graphs["Poll"]
	if msg.NumPaths < 12 {
		t.Errorf("message-loop paths = %d", msg.NumPaths)
	}
	// Sessions: the Poll source carries the session function.
	if msg.SessionFunc != "PeerSession" {
		t.Errorf("session func = %q", msg.SessionFunc)
	}
	// The paper's famous empty-poll path must exist.
	var found bool
	for id := uint64(0); id < msg.NumPaths; id++ {
		if msg.PathLabel(id) == "Poll -> GetClients -> SelectSockets -> CheckSockets -> ERROR" {
			found = true
		}
	}
	if !found {
		t.Error("empty-poll ERROR path missing from the graph")
	}
}

func TestGoldenGameServer(t *testing.T) {
	p := compileGolden(t, "gameserver.flux", gameserver.FluxSource)
	if len(p.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", p.Warnings)
	}
	if len(p.Sources) != 2 {
		t.Errorf("sources = %d, want 2", len(p.Sources))
	}
}
