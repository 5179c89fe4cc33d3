package netkit

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lang/parser"
	"github.com/flux-lang/flux/internal/runtime"
)

// TestFluxPlaneContinueAfterShutdownCountsClosedShed: a flow that
// re-admits its connection through Continue after the runtime began
// draining is refused, and the plane drops the connection as exactly
// one "closed" shed — on every engine, whether the flow runs on a
// goroutine that could carry the connection on or not.
func TestFluxPlaneContinueAfterShutdownCountsClosedShed(t *testing.T) {
	ast, err := parser.Parse("plane.flux", `
Listen () => (conn c);
Serve (conn c) => ();
source Listen => F;
F = Serve;
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Build(ast)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []runtime.EngineKind{
		runtime.ThreadPerFlow, runtime.ThreadPool, runtime.EventDriven, runtime.WorkStealing,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			var fp *FluxPlane
			entered := make(chan struct{})
			b := runtime.NewBindings().
				BindSource("Listen", func(fl *runtime.Flow) (runtime.Record, error) { return nil, runtime.ErrStop }).
				BindNode("Serve", func(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
					close(entered)
					<-fl.Ctx.Done() // the runtime is draining
					fp.Continue(fl, in[0].(*Conn))
					return nil, nil
				}).
				MarkBlocking("Serve")
			rec := newShedRecorder()
			rt, err := runtime.New(prog, b, runtime.WithEngine(kind), runtime.WithKeepAlive())
			if err != nil {
				t.Fatal(err)
			}
			if fp, err = NewFluxPlane(rt, "Listen", Config{Name: "fp", Observer: rec}); err != nil {
				t.Fatal(err)
			}
			if err := fp.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			conn, err := net.DialTimeout("tcp", fp.Addr(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("connection never reached Serve")
			}
			shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := fp.Shutdown(shCtx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			_ = fp.Wait()
			if st := fp.PlaneStats(); st.Shed != 1 || st.Live != 0 {
				t.Errorf("plane stats = %+v, want 1 shed and no live connection", st)
			}
			if n := rec.count("fp/closed"); n != 1 {
				t.Errorf("closed sheds = %d, want 1", n)
			}
			if st := rt.Stats().Snapshot(); st.Started != 1 || st.Completed != 1 {
				t.Errorf("runtime stats = %+v, want the one admitted flow started and completed", st)
			}
		})
	}
}
