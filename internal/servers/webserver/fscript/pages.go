package fscript

import (
	_ "embed"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/flux-lang/flux/internal/lfu"
)

// The benchmark's dynamic pages. They live here — not in the Flux web
// server — because the hand-written baseline servers (knotweb, sedaweb)
// must serve the very same pages through the very same engine for the
// SPECweb99-like mixed workload to compare server architectures rather
// than dynamic-content engines.
//
// The templates are files (embedded below) so `fluxc -fscript` compiles
// exactly the bytes the servers parse; pages_compiled.go is the checked
// in output.

//go:generate go run github.com/flux-lang/flux/cmd/fluxc -fscript -pkg fscript -o pages_compiled.go bench_work.fs bench_ad.fs

// BenchWorkPage is the CPU-burning dynamic page served under /dynamic:
// a bounded loop whose bound (`work`) controls per-request CPU like the
// paper's PHP pages.
//
//go:embed bench_work.fs
var BenchWorkPage string

// BenchAdPage is the SPECweb99-style ad-rotation page served under
// /adrotate: the ad is selected from the requesting user's id and the
// server's rotation counter, then the same bounded loop burns the
// per-request CPU of a dynamic GET.
//
//go:embed bench_ad.fs
var BenchAdPage string

// The URL prefixes the benchmark pages are served under: the one list
// of dynamic paths every web server routes by.
const (
	workPath = "/dynamic"
	adPath   = "/adrotate"
)

// IsDynamicPath reports whether a GET for path is answered by a
// benchmark page rather than a static file.
func IsDynamicPath(path string) bool {
	return strings.HasPrefix(path, workPath) || strings.HasPrefix(path, adPath)
}

// Dispatch selects how BenchPages renders a dynamic request.
type Dispatch int32

const (
	// DispatchCompiled (the default) runs the template's registered
	// CompiledPage and falls back to the interpreter — behind the
	// fragment cache — for unknown templates or uncovered inputs.
	DispatchCompiled Dispatch = iota
	// DispatchInterpret forces the interpreter but keeps the fragment
	// cache in front of it (the non-compilable configuration).
	DispatchInterpret
	// DispatchInterpretRaw forces the bare interpreter with no cache —
	// the seed behavior, kept for the before/after comparison.
	DispatchInterpretRaw
)

// String names the dispatch mode for harness output.
func (d Dispatch) String() string {
	switch d {
	case DispatchCompiled:
		return "compiled"
	case DispatchInterpret:
		return "interpreted+cache"
	default:
		return "interpreted"
	}
}

// DynStats counts how dynamic renders were served; the ops endpoint
// exports them so a live server shows whether the interpreter tax is
// being paid.
type DynStats struct {
	Compiled    uint64 `json:"compiled"`    // served by a CompiledPage
	Interpreted uint64 `json:"interpreted"` // served by the AST interpreter
	FragHits    uint64 `json:"frag_hits"`   // served from the fragment cache
	FragMisses  uint64 `json:"frag_misses"` // interpreted, then cached
}

// BenchPages bundles the parsed benchmark pages with the server-side
// ad-rotation counter, so every web server (Flux or baseline) renders
// dynamic requests through one code path: compiled-first, with the AST
// interpreter — behind an LFU fragment cache — as the fallback for
// anything the compiler did not cover.
type BenchPages struct {
	work, ad   *Page
	workC, adC CompiledPage // nil when no compiled form is registered
	rot        atomic.Uint64
	mode       atomic.Int32 // Dispatch

	// frag caches interpreter output keyed on the exact inputs a render
	// consumed: (template, work) for the work page, (template, work,
	// user, rot-bucket) for the ad page — the rotation counter enters
	// the page only through (user+rot)%8, so that residue is the key.
	frag *lfu.Locked

	compiled, interpreted, fragHits, fragMisses atomic.Uint64
}

// FragmentCacheBytes bounds the dynamic fragment cache. Rendered
// fragments are ~100 bytes; 1 MB holds every (work, user, ad-bucket)
// combination a benchmark sweep generates while still exercising LFU
// eviction under adversarial `n=` query spreads.
const FragmentCacheBytes = 1 << 20

// NewBenchPages parses both benchmark templates and picks up their
// compiled forms from the registry (pages_compiled.go registers them at
// init; if it is stale or missing, the pages silently interpret).
func NewBenchPages() (*BenchPages, error) {
	work, err := Parse(BenchWorkPage)
	if err != nil {
		return nil, err
	}
	ad, err := Parse(BenchAdPage)
	if err != nil {
		return nil, err
	}
	b := &BenchPages{
		work: work,
		ad:   ad,
		frag: lfu.NewLocked(FragmentCacheBytes),
	}
	b.workC, _ = CompiledFor(BenchWorkPage)
	b.adC, _ = CompiledFor(BenchAdPage)
	return b, nil
}

// SetDispatch overrides the render dispatch mode (experiments compare
// compiled vs interpreted vs cached; production keeps the default).
func (b *BenchPages) SetDispatch(d Dispatch) { b.mode.Store(int32(d)) }

// CompiledActive reports whether both benchmark templates have compiled
// forms registered and the dispatch mode will use them — the `-exp web`
// harness asserts this so a stale pages_compiled.go fails CI instead of
// silently re-paying the interpreter tax.
func (b *BenchPages) CompiledActive() bool {
	return Dispatch(b.mode.Load()) == DispatchCompiled && b.workC != nil && b.adC != nil
}

// DynStats snapshots the dynamic dispatch counters.
func (b *BenchPages) DynStats() DynStats {
	return DynStats{
		Compiled:    b.compiled.Load(),
		Interpreted: b.interpreted.Load(),
		FragHits:    b.fragHits.Load(),
		FragMisses:  b.fragMisses.Load(),
	}
}

// FragStats exposes the fragment cache's hit/miss/eviction counters.
func (b *BenchPages) FragStats() (hits, misses, evictions uint64) { return b.frag.Stats() }

// Render serves a dynamic GET, returning the page as a string. It is
// the convenience wrapper around RenderTo; hot paths call RenderTo with
// a pooled buffer instead.
func (b *BenchPages) Render(path, query string, defaultWork int64) (string, error) {
	out, err := b.RenderTo(nil, path, query, defaultWork)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// RenderTo serves a dynamic GET, appending the page to out and
// returning the extended slice: the ad-rotation page for /adrotate
// paths (user from the `u` query parameter, rotation from the shared
// counter), the CPU-burning work page otherwise. defaultWork is the
// loop bound unless the `n` query parameter overrides it (capped at
// 1e6). Dispatch is compiled-first with the interpreter (fragment
// cached) as fallback. Safe for concurrent use.
func (b *BenchPages) RenderTo(out []byte, path, query string, defaultWork int64) ([]byte, error) {
	work := defaultWork
	if v := QueryParam(query, "n"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 && n <= 1_000_000 {
			work = n
		}
	}
	if strings.HasPrefix(path, adPath) {
		var user int64
		if v := QueryParam(query, "u"); v != "" {
			user, _ = strconv.ParseInt(v, 10, 64)
		}
		rot := int64(b.rot.Add(1))
		return b.render(b.ad, b.adC, out, work, user, rot, true)
	}
	return b.render(b.work, b.workC, out, work, 0, 0, false)
}

// render dispatches one page execution. adPage selects the variable set
// and the fragment key shape.
func (b *BenchPages) render(p *Page, c CompiledPage, out []byte, work, user, rot int64, adPage bool) ([]byte, error) {
	mode := Dispatch(b.mode.Load())
	base := len(out)

	if mode == DispatchCompiled && c != nil {
		env := GetEnv()
		env.SetInt("work", work)
		if adPage {
			env.SetInt("user", user)
			env.SetInt("rot", rot)
		}
		res, err := c(env, out)
		PutEnv(env)
		if err == nil {
			b.compiled.Add(1)
			return res, nil
		}
		if err != ErrNotCompiled {
			return res, err
		}
		out = out[:base] // compiled path declined before writing; fall back
	}

	if mode != DispatchInterpretRaw {
		// Fragment cache in front of the interpreter. The key encodes
		// every input the page's output depends on, with the rotation
		// reduced to the residue the script consumes ((user+rot)%8 in Go
		// semantics, matching the page exactly).
		var kb [48]byte
		key := kb[:0]
		if adPage {
			key = append(key, 'a', '|')
			key = strconv.AppendInt(key, work, 10)
			key = append(key, '|')
			key = strconv.AppendInt(key, user, 10)
			key = append(key, '|')
			key = strconv.AppendInt(key, (user+rot)%8, 10)
		} else {
			key = append(key, 'w', '|')
			key = strconv.AppendInt(key, work, 10)
		}
		k := string(key)
		if frag, ok := b.frag.Get(k); ok {
			out = append(out, frag...)
			b.frag.Release(k)
			b.fragHits.Add(1)
			return out, nil
		}
		res, err := b.interpret(p, out, work, user, rot, adPage)
		if err != nil {
			return res, err
		}
		frag := make([]byte, len(res)-base)
		copy(frag, res[base:])
		b.frag.Put(k, frag)
		b.frag.Release(k)
		b.fragMisses.Add(1)
		b.interpreted.Add(1)
		return res, nil
	}

	res, err := b.interpret(p, out, work, user, rot, adPage)
	if err == nil {
		b.interpreted.Add(1)
	}
	return res, err
}

// interpret runs the AST interpreter with a pooled env.
func (b *BenchPages) interpret(p *Page, out []byte, work, user, rot int64, adPage bool) ([]byte, error) {
	env := GetEnv()
	env.SetInt("work", work)
	if adPage {
		env.SetInt("user", user)
		env.SetInt("rot", rot)
	}
	res, err := p.ExecuteInto(env, out)
	PutEnv(env)
	return res, err
}

// QueryParam extracts one key from a raw query string. It walks the
// query with strings.Cut instead of splitting, so it allocates nothing
// — it runs on every dynamic request.
func QueryParam(query, key string) string {
	for query != "" {
		var kv string
		kv, query, _ = strings.Cut(query, "&")
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return v
		}
	}
	return ""
}
