package runtime

// The engine conformance property: a Flux program's observable output
// does not depend on the schedule. Every engine, at any dispatcher
// count, fed the same records — through a source or through keep-alive
// Inject + Continue chains — must end every flow on the same Ball-Larus
// path with the same outcome and the same sink output, conserve flows,
// and leave every lock free.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/core"
)

// agreeSrc has every shape the engines schedule differently: a blocking
// first node (the keep-alive read, where chains continue), a node that
// errors into a handler, a dispatch whose unmatched records drop, a
// blocking node inside a writer constraint, and a reader constraint.
const agreeSrc = `
Gen () => (int v);
Read (int v) => (int v);
Check (int v) => (int v);
Store (int v) => (int v);
Lookup (int v) => (int v);
Sink (int v) => ();
Fail (int v) => ();
source Gen => F;
F = Read -> Check -> Route -> Sink;
typedef hot IsHot;
typedef warm IsWarm;
Route:[hot] = Store;
Route:[warm] = Lookup;
handle error Check => Fail;
atomic Store:{cache};
atomic Lookup:{cache?};
`

// agreeCase is one fuzz input decoded: the records, how many keep-alive
// chains carry them, and which records Check fails. A record is its
// position in the stream shifted left 8 bits over the input byte, so
// every record is distinct and the predicates read the byte.
type agreeCase struct {
	recs    []int
	chains  int
	failMod int
}

func decodeAgreeCase(in []byte) agreeCase {
	const maxRecs = 48
	c := agreeCase{chains: 1, failMod: 5}
	if len(in) > 0 {
		c.chains = int(in[0]%4) + 1
		in = in[1:]
	}
	if len(in) > 0 {
		c.failMod = int(in[0]%6) + 2
		in = in[1:]
	}
	if len(in) > maxRecs {
		in = in[:maxRecs]
	}
	for i, b := range in {
		c.recs = append(c.recs, i<<8|int(b))
	}
	return c
}

// agreeObserver collects the multiset of (path ID, outcome) pairs from
// flow terminals; the nodes add their own tuples through note.
type agreeObserver struct {
	mu     sync.Mutex
	tuples map[string]int
}

func (o *agreeObserver) note(tuple string) {
	o.mu.Lock()
	o.tuples[tuple]++
	o.mu.Unlock()
}

func (o *agreeObserver) FlowDone(_ *core.FlatGraph, pathID uint64, outcome FlowOutcome, _ time.Duration) {
	o.note(fmt.Sprintf("done path=%d %s", pathID, outcome))
}
func (o *agreeObserver) NodeDone(*core.FlatGraph, *core.FlatNode, time.Duration) {}
func (o *agreeObserver) QueueDepth(EngineKind, string, int)                      {}

func (o *agreeObserver) sorted() []string {
	var out []string
	for k, n := range o.tuples {
		out = append(out, fmt.Sprintf("%s x%d", k, n))
	}
	slices.Sort(out)
	return out
}

type agreeEngine struct {
	name string
	cfg  Config
}

// agreeEngines is every registered engine at its defaults, plus the
// work-stealing engine at one and at four dispatchers.
func agreeEngines() []agreeEngine {
	var out []agreeEngine
	for _, k := range EngineKinds() {
		out = append(out, agreeEngine{k.String(), Config{Kind: k}})
	}
	for _, d := range []int{1, 4} {
		out = append(out, agreeEngine{fmt.Sprintf("%s-d%d", WorkStealing, d),
			Config{Kind: WorkStealing, Dispatchers: d}})
	}
	return out
}

// runAgree runs c on one engine configuration and returns the sorted
// tuple multiset. With chained false a source yields the records in
// order; otherwise c.chains chains each Inject their first record, and
// every flow's blocking Read continues its chain with the next record.
func runAgree(t *testing.T, p *core.Program, eng agreeEngine, c agreeCase, chained bool) []string {
	t.Helper()
	obs := &agreeObserver{tuples: map[string]int{}}
	var (
		h          *SourceHandle
		writers    atomic.Int32
		readers    atomic.Int32
		violations atomic.Int32
		refused    atomic.Int32
		next       = map[int]int{}
		pos        atomic.Int64
	)
	if chained {
		for i := c.chains; i < len(c.recs); i++ {
			next[c.recs[i-c.chains]] = c.recs[i]
		}
	}
	byteOf := func(v any) int { return v.(int) & 0xff }
	b := NewBindings().
		BindSource("Gen", func(fl *Flow) (Record, error) {
			i := int(pos.Add(1)) - 1
			if chained || i >= len(c.recs) {
				return nil, ErrStop
			}
			return Record{c.recs[i]}, nil
		}).
		BindNode("Read", func(fl *Flow, in Record) (Record, error) {
			if n, ok := next[in[0].(int)]; ok {
				if err := h.Continue(fl, Record{n}); err != nil {
					refused.Add(1)
				}
			}
			return in, nil
		}).
		BindNode("Check", func(fl *Flow, in Record) (Record, error) {
			if byteOf(in[0])%c.failMod == 0 {
				return nil, fmt.Errorf("check failed")
			}
			return in, nil
		}).
		BindNode("Store", func(fl *Flow, in Record) (Record, error) {
			if writers.Add(1) != 1 || readers.Load() != 0 {
				violations.Add(1)
			}
			runtime.Gosched()
			writers.Add(-1)
			return Record{in[0].(int)*3 + 1}, nil
		}).
		BindNode("Lookup", func(fl *Flow, in Record) (Record, error) {
			readers.Add(1)
			if writers.Load() != 0 {
				violations.Add(1)
			}
			runtime.Gosched()
			readers.Add(-1)
			return Record{in[0].(int)*5 + 2}, nil
		}).
		BindNode("Sink", func(fl *Flow, in Record) (Record, error) {
			obs.note(fmt.Sprintf("sink path=%d out=%d", fl.path, in[0].(int)))
			return nil, nil
		}).
		BindNode("Fail", func(fl *Flow, in Record) (Record, error) {
			obs.note(fmt.Sprintf("fail path=%d in=%d", fl.path, in[0].(int)))
			return nil, nil
		}).
		BindPredicate("IsHot", func(v any) bool { return byteOf(v)%3 == 0 }).
		BindPredicate("IsWarm", func(v any) bool { return byteOf(v)%3 == 1 }).
		MarkBlocking("Read", "Store")
	cfg := eng.cfg
	cfg.PoolSize, cfg.AsyncWorkers = 2, 2
	cfg.Observer = obs
	cfg.KeepAlive = chained
	s, err := NewServer(p, b, cfg)
	if err != nil {
		t.Fatalf("%s: NewServer: %v", eng.name, err)
	}
	if h, err = s.Source("Gen"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if !chained {
		if err := s.Run(ctx); err != nil {
			t.Fatalf("%s: Run: %v", eng.name, err)
		}
	} else {
		if err := s.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, r := range c.recs[:min(c.chains, len(c.recs))] {
			if err := h.Inject(Record{r}); err != nil {
				t.Fatalf("%s: Inject: %v", eng.name, err)
			}
		}
		for {
			st := s.Stats().Snapshot()
			if st.Completed+st.Errored+st.Dropped >= uint64(len(c.recs)) {
				break
			}
			if ctx.Err() != nil {
				t.Fatalf("%s: chains stalled: %+v", eng.name, st)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("%s: Shutdown: %v", eng.name, err)
		}
		if err := s.Wait(); err != nil {
			t.Fatalf("%s: Wait: %v", eng.name, err)
		}
	}

	st := s.Stats().Snapshot()
	if st.Started != uint64(len(c.recs)) || st.Started != st.Completed+st.Errored+st.Dropped {
		t.Errorf("%s: started %d of %d records, completed+errored+dropped = %d",
			eng.name, st.Started, len(c.recs), st.Completed+st.Errored+st.Dropped)
	}
	if n := violations.Load(); n != 0 {
		t.Errorf("%s: %d atomicity violations on {cache}", eng.name, n)
	}
	if n := refused.Load(); n != 0 {
		t.Errorf("%s: %d Continue refusals", eng.name, n)
	}
	if !s.locks.lock(lockKey{name: "cache"}).tryAcquire(s.newFlow(context.Background(), 0), true) {
		t.Errorf("%s: {cache} still held after the run", eng.name)
	}
	return obs.sorted()
}

// FuzzEnginesAgree checks the conformance property on one program and
// one input stream per seed: every engine configuration, fed through a
// source and through keep-alive chains, yields the same multiset of
// (path ID, outcome) terminals and of sink and handler outputs, keyed
// by the path register at the node. The input's first byte picks the
// chain count, its second which records Check fails, and the rest are
// the records; seeds are in testdata/fuzz/FuzzEnginesAgree.
func FuzzEnginesAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		c := decodeAgreeCase(in)
		p := compileSrc(t, agreeSrc)
		var want []string
		var wantFrom string
		for _, eng := range agreeEngines() {
			for _, chained := range []bool{false, true} {
				got := runAgree(t, p, eng, c, chained)
				from := fmt.Sprintf("%s chained=%v", eng.name, chained)
				if want == nil {
					want, wantFrom = got, from
					continue
				}
				if !slices.Equal(got, want) {
					t.Fatalf("engines disagree on %v\n%s:\n  %v\n%s:\n  %v", c, wantFrom, want, from, got)
				}
			}
		}
	})
}
