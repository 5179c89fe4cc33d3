package runtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestFlowConservationProperty: for randomized programs (branch fan-out,
// failure rates, constraints) on every engine, flows are conserved:
// Started == Completed + Errored + Dropped, and all locks end free.
func TestFlowConservationProperty(t *testing.T) {
	f := func(nCases uint8, failMod uint8, engine uint8, withConstraint bool) bool {
		cases := int(nCases%3) + 2
		kinds := EngineKinds()
		kind := kinds[int(engine)%len(kinds)]

		var sb strings.Builder
		sb.WriteString("Gen () => (int v);\nPre (int v) => (int v);\nPost (int v) => ();\n")
		for i := 0; i < cases; i++ {
			fmt.Fprintf(&sb, "Work%c (int v) => (int v);\n", 'A'+i)
		}
		sb.WriteString("source Gen => F;\nF = Pre -> Disp -> Post;\n")
		for i := 0; i < cases; i++ {
			fmt.Fprintf(&sb, "typedef t%d P%d;\n", i, i)
		}
		for i := 0; i < cases; i++ {
			if i == cases-1 {
				fmt.Fprintf(&sb, "Disp:[_] = Work%c;\n", 'A'+i)
			} else {
				fmt.Fprintf(&sb, "Disp:[t%d] = Work%c;\n", i, 'A'+i)
			}
		}
		if withConstraint {
			sb.WriteString("atomic Pre:{shared};\natomic Post:{shared?};\n")
		}

		p := compileSrc(t, sb.String())
		const total = 60
		var produced atomic.Int64
		b := NewBindings().
			BindSource("Gen", func(fl *Flow) (Record, error) {
				v := produced.Add(1)
				if v > total {
					return nil, ErrStop
				}
				return Record{int(v)}, nil
			}).
			BindNode("Pre", func(fl *Flow, in Record) (Record, error) {
				if failMod > 0 && in[0].(int)%int(failMod%7+2) == 0 {
					return nil, errors.New("injected failure")
				}
				return in, nil
			}).
			BindNode("Post", func(fl *Flow, in Record) (Record, error) { return nil, nil })
		for i := 0; i < cases; i++ {
			i := i
			b.BindNode(fmt.Sprintf("Work%c", 'A'+i), func(fl *Flow, in Record) (Record, error) {
				return in, nil
			})
			b.BindPredicate(fmt.Sprintf("P%d", i), func(v any) bool {
				return v.(int)%cases == i
			})
		}

		s, err := NewServer(p, b, Config{Kind: kind, PoolSize: 4})
		if err != nil {
			t.Logf("NewServer: %v", err)
			return false
		}
		if err := s.Run(context.Background()); err != nil {
			t.Logf("Run: %v", err)
			return false
		}
		st := s.Stats().Snapshot()
		if st.Started != total {
			t.Logf("started = %d", st.Started)
			return false
		}
		if st.Completed+st.Errored+st.Dropped != st.Started {
			t.Logf("conservation violated: %+v", st)
			return false
		}
		// Locks must end free.
		if withConstraint {
			fl := s.newFlow(context.Background(), 0)
			l := s.locks.lock(lockKey{name: "shared"})
			if !l.tryAcquire(fl, true) {
				t.Log("lock leaked")
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
