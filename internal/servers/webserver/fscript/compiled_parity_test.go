package fscript

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"github.com/flux-lang/flux/internal/lfu"
)

// interpretPage runs the AST interpreter with the given int bindings.
func interpretPage(t *testing.T, p *Page, stepLimit int64, vars map[string]int64) ([]byte, error) {
	t.Helper()
	var env Env
	env.StepLimit = stepLimit
	for k, v := range vars {
		env.SetInt(k, v)
	}
	return p.ExecuteInto(&env, nil)
}

// compilePage runs the registered compiled form with the same bindings.
func compilePage(t *testing.T, src string, stepLimit int64, vars map[string]int64) ([]byte, error) {
	t.Helper()
	fn, ok := CompiledFor(src)
	if !ok {
		t.Fatalf("no compiled form registered (stale pages_compiled.go? run go generate)")
	}
	var env Env
	env.StepLimit = stepLimit
	for k, v := range vars {
		env.SetInt(k, v)
	}
	return fn(&env, nil)
}

// TestCompiledRegistered is the cheap staleness tripwire: both benchmark
// templates must resolve in the registry, which keys on the exact
// template bytes pages_compiled.go was generated from.
func TestCompiledRegistered(t *testing.T) {
	if _, ok := CompiledFor(BenchWorkPage); !ok {
		t.Error("BenchWorkPage has no compiled form: pages_compiled.go is stale")
	}
	if _, ok := CompiledFor(BenchAdPage); !ok {
		t.Error("BenchAdPage has no compiled form: pages_compiled.go is stale")
	}
}

// TestCompiledParitySweep drives both benchmark pages through the
// interpreter and the compiled form over a randomized seeded sweep of
// (work, user, rot) — including zero, negative, and large values — and
// requires byte-identical output.
func TestCompiledParitySweep(t *testing.T) {
	work, err := Parse(BenchWorkPage)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := Parse(BenchAdPage)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	works := []int64{0, 1, 2, 7, 97, 1000}
	users := []int64{0, 1, -1, -2, -9, 7, 8, -8, 1 << 40, -(1 << 40)}
	rots := []int64{0, 1, 2, 7, 8, 9, -3, 1 << 20}
	for i := 0; i < 200; i++ {
		works = append(works, rng.Int63n(3000))
		users = append(users, rng.Int63()-rng.Int63())
		rots = append(rots, rng.Int63n(1<<30))
	}

	for i := range works {
		w := works[i%len(works)]
		u := users[i%len(users)]
		r := rots[i%len(rots)]

		want, err := interpretPage(t, work, 0, map[string]int64{"work": w})
		if err != nil {
			t.Fatalf("interpret work(%d): %v", w, err)
		}
		got, err := compilePage(t, BenchWorkPage, 0, map[string]int64{"work": w})
		if err != nil {
			t.Fatalf("compiled work(%d): %v", w, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("work page diverged at work=%d:\ninterp: %q\ncompiled: %q", w, want, got)
		}

		vars := map[string]int64{"work": w, "user": u, "rot": r}
		want, err = interpretPage(t, ad, 0, vars)
		if err != nil {
			t.Fatalf("interpret ad(%d,%d,%d): %v", w, u, r, err)
		}
		got, err = compilePage(t, BenchAdPage, 0, vars)
		if err != nil {
			t.Fatalf("compiled ad(%d,%d,%d): %v", w, u, r, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("ad page diverged at work=%d user=%d rot=%d:\ninterp: %q\ncompiled: %q", w, u, r, want, got)
		}
	}
}

// TestCompiledStepLimitParity sweeps tight step budgets across the abort
// boundary: for every budget the compiled form and the interpreter must
// agree on whether the page aborts, and on the bytes when it does not.
func TestCompiledStepLimitParity(t *testing.T) {
	work, err := Parse(BenchWorkPage)
	if err != nil {
		t.Fatal(err)
	}
	for limit := int64(1); limit < 80; limit++ {
		want, ierr := interpretPage(t, work, limit, map[string]int64{"work": 10})
		got, cerr := compilePage(t, BenchWorkPage, limit, map[string]int64{"work": 10})
		if (ierr != nil) != (cerr != nil) {
			t.Fatalf("limit=%d: interpreter err=%v, compiled err=%v", limit, ierr, cerr)
		}
		if ierr != nil {
			if !errors.Is(ierr, ErrStepLimit) || !errors.Is(cerr, ErrStepLimit) {
				t.Fatalf("limit=%d: wrong abort errors: %v / %v", limit, ierr, cerr)
			}
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("limit=%d: output diverged", limit)
		}
	}
}

// TestCompiledDeclinesBeforeOutput: a compiled page whose env is missing
// an input (or holds a string where an integer was compiled) must return
// ErrNotCompiled without appending anything, so the caller's fallback
// starts from a clean buffer.
func TestCompiledDeclinesBeforeOutput(t *testing.T) {
	fn, ok := CompiledFor(BenchAdPage)
	if !ok {
		t.Fatal("no compiled ad page")
	}
	var env Env
	env.SetInt("work", 5) // user, rot missing
	prefix := []byte("sentinel")
	out, err := fn(&env, prefix)
	if !errors.Is(err, ErrNotCompiled) {
		t.Fatalf("err = %v, want ErrNotCompiled", err)
	}
	if !bytes.Equal(out, prefix) {
		t.Fatalf("compiled page wrote before declining: %q", out)
	}

	env.Reset()
	env.SetInt("work", 5)
	env.SetInt("user", 1)
	env.Set("rot", StrVal("7")) // string where an int was compiled
	out, err = fn(&env, prefix)
	if !errors.Is(err, ErrNotCompiled) {
		t.Fatalf("string-typed input: err = %v, want ErrNotCompiled", err)
	}
	if !bytes.Equal(out, prefix) {
		t.Fatalf("compiled page wrote before declining: %q", out)
	}
}

// TestRenderFallbackOnUncompilable: when the compiled form declines at
// runtime, render must fall back to the interpreter and produce its
// exact output — the regression guard for the uncompilable-script path.
func TestRenderFallbackOnUncompilable(t *testing.T) {
	b, err := NewBenchPages()
	if err != nil {
		t.Fatal(err)
	}
	// Force the compiled work page to decline every call.
	declines := 0
	b.workC = func(env *Env, out []byte) ([]byte, error) {
		declines++
		return out, ErrNotCompiled
	}
	out, err := b.Render("/dynamic", "n=10", 2000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(BenchWorkPage)
	if err != nil {
		t.Fatal(err)
	}
	want, err := interpretPage(t, p, 0, map[string]int64{"work": 10})
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("fallback output diverged:\ngot:  %q\nwant: %q", out, want)
	}
	if declines != 1 {
		t.Fatalf("compiled stub called %d times, want 1", declines)
	}
	st := b.DynStats()
	if st.Compiled != 0 || st.Interpreted != 1 || st.FragMisses != 1 {
		t.Fatalf("stats after fallback = %+v", st)
	}
	// Second render of the same inputs: served from the fragment cache,
	// never reaching the interpreter again.
	out2, err := b.Render("/dynamic", "n=10", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if out2 != out {
		t.Fatal("cached fallback output diverged")
	}
	if st := b.DynStats(); st.FragHits != 1 || st.Interpreted != 1 {
		t.Fatalf("stats after cached fallback = %+v", st)
	}
}

// TestRenderCompiledCounts: the default dispatch serves from the
// compiled path and counts it.
func TestRenderCompiledCounts(t *testing.T) {
	b, err := NewBenchPages()
	if err != nil {
		t.Fatal(err)
	}
	if !b.CompiledActive() {
		t.Fatal("compiled path inactive")
	}
	if _, err := b.Render("/dynamic", "n=10", 2000); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Render("/adrotate", "u=3&n=10", 2000); err != nil {
		t.Fatal(err)
	}
	st := b.DynStats()
	if st.Compiled != 2 || st.Interpreted != 0 {
		t.Fatalf("stats = %+v, want 2 compiled", st)
	}
}

// TestFragmentCacheBuckets pins the cache-key correctness subtlety: the
// ad page consumes the rotation only through (user+rot)%8 in Go's
// truncated-modulo semantics, so congruent sums of different sign are
// DIFFERENT ads and must occupy different cache entries, while equal
// residues share one.
func TestFragmentCacheBuckets(t *testing.T) {
	b, err := NewBenchPages()
	if err != nil {
		t.Fatal(err)
	}
	b.SetDispatch(DispatchInterpret)

	render := func(work, user, rot int64) string {
		out, err := b.render(b.ad, nil, nil, work, user, rot, true)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}

	// (-3+1)%8 = -2 and (5+1)%8 = 6 are congruent mod 8 but render
	// different ads; a key on a normalized residue would alias them.
	neg := render(5, -3, 1)
	pos := render(5, 5, 1)
	if neg == pos {
		t.Fatal("negative and positive residues aliased in the fragment cache")
	}
	if h, m, _ := b.frag.Stats(); h != 0 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", h, m)
	}

	// Same user, different rot with equal residue: (7+1)%8 = (7+9)%8 =
	// 0, identical page, one cache entry — the second render is a hit.
	a := render(5, 7, 1)
	bb := render(5, 7, 9)
	if a != bb {
		t.Fatal("equal residues rendered differently")
	}
	if h, _, _ := b.frag.Stats(); h != 1 {
		t.Fatalf("hits=%d, want 1 (rot must fold into the residue)", h)
	}
}

// TestFragmentCacheEviction: a fragment cache bounded below the working
// set must evict (counters say so) while every render stays correct.
func TestFragmentCacheEviction(t *testing.T) {
	b, err := NewBenchPages()
	if err != nil {
		t.Fatal(err)
	}
	b.SetDispatch(DispatchInterpret)
	b.frag = lfu.NewLocked(256) // a few fragments at most

	p, err := Parse(BenchWorkPage)
	if err != nil {
		t.Fatal(err)
	}
	for w := int64(1); w <= 64; w++ {
		got, err := b.render(b.work, nil, nil, w, 0, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := interpretPage(t, p, 0, map[string]int64{"work": w})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("work=%d: evicting cache corrupted output", w)
		}
	}
	if _, _, ev := b.frag.Stats(); ev == 0 {
		t.Fatal("no evictions despite a cache far below the working set")
	}
}

// TestRenderToAppends: RenderTo must append after existing bytes on
// every dispatch path.
func TestRenderToAppends(t *testing.T) {
	for _, mode := range []Dispatch{DispatchCompiled, DispatchInterpret, DispatchInterpretRaw} {
		b, err := NewBenchPages()
		if err != nil {
			t.Fatal(err)
		}
		b.SetDispatch(mode)
		for i := 0; i < 2; i++ { // second round hits the fragment cache
			out, err := b.RenderTo([]byte("prefix-"), "/adrotate", "u=1&n=3", 2000)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(out, []byte("prefix-<html>")) {
				t.Fatalf("mode %v: RenderTo clobbered the prefix: %q", mode, out[:20])
			}
		}
	}
}

// TestQueryParamZeroAlloc pins the satellite: parameter extraction on
// the dynamic hot path must not allocate.
func TestQueryParamZeroAlloc(t *testing.T) {
	query := "a=1&n=2000&u=42&z=9"
	if got := QueryParam(query, "n"); got != "2000" {
		t.Fatalf("QueryParam = %q", got)
	}
	if got := QueryParam(query, "u"); got != "42" {
		t.Fatalf("QueryParam = %q", got)
	}
	if got := QueryParam(query, "missing"); got != "" {
		t.Fatalf("QueryParam = %q", got)
	}
	if got := QueryParam("", "n"); got != "" {
		t.Fatalf("QueryParam on empty = %q", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if QueryParam(query, "u") != "42" {
			t.Fatal("wrong value")
		}
	})
	if allocs != 0 {
		t.Fatalf("QueryParam allocates %.1f per call, want 0", allocs)
	}
}

// TestCompiledRenderZeroAlloc pins the tentpole's allocation contract:
// a compiled render through pooled env and buffer allocates nothing.
func TestCompiledRenderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes under -race; allocation behavior is asserted in the normal build")
	}
	b, err := NewBenchPages()
	if err != nil {
		t.Fatal(err)
	}
	if !b.CompiledActive() {
		t.Fatal("compiled path inactive")
	}
	query := "u=7&n=200"
	buf := GetBuf()
	defer PutBuf(buf)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := b.RenderTo(buf.B, "/adrotate", query, 2000)
		if err != nil {
			t.Fatal(err)
		}
		buf.B = out[:0]
	})
	if allocs != 0 {
		t.Fatalf("compiled render allocates %.1f per request, want 0", allocs)
	}
}

// TestRenderWorkCap: the n query parameter is capped so a client cannot
// demand unbounded CPU.
func TestRenderWorkCap(t *testing.T) {
	b, err := NewBenchPages()
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Render("/dynamic", "n="+strconv.FormatInt(1<<40, 10), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(out), []byte("work=7")) {
		t.Fatalf("oversized n was not rejected: %q", out)
	}
}
