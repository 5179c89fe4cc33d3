package main

import (
	"runtime"
	"time"

	"github.com/flux-lang/flux/internal/servers/webserver"
)

// loopKind is how the generator paces one workload.
type loopKind int

const (
	// closedKeepAlive sends a connection's next request as soon as the
	// previous response is read: callers that each wait for a reply.
	closedKeepAlive loopKind = iota
	// closedFresh opens a new connection for every request.
	closedFresh
	// openLoop sends on a Poisson schedule whatever the server does:
	// independent users. Latency is timed from the due time.
	openLoop
)

// mix gives a workload's traffic as shares of all requests.
type mix struct {
	static        [4]float64 // the four SPECweb99 file classes
	ad, dyn, post float64
}

// workload is one traffic mix together with the server shape it runs
// against. Names are fixed: later issues refer to them.
type workload struct {
	name   string
	why    string
	engine string // runtime engine of the server under test
	loop   loopKind
	rate   float64 // openLoop: offered requests per second over all connections
	mix    mix
	dirs   int
	// materialize writes the corpus to disk so that bodies of 64 KB and
	// more leave through sendfile(2).
	materialize bool
	cacheBytes  int64 // 0 keeps the server's 64 MB default: the corpus stays resident
}

var staticSmall = mix{static: [4]float64{1, 0, 0, 0}}

// workloads lists the five traffic mixes in run order.
var workloads = []workload{
	{
		name: "small_keepalive", engine: "threadpool", loop: closedKeepAlive, mix: staticSmall, dirs: 2,
		why: "smallest message on keep-alive connections: per-request cost is all overhead, so runtime, lock, telemetry and small-write changes show here; body size and cache misses are about zero",
	},
	{
		name: "steal_small_keepalive", engine: "steal", loop: closedKeepAlive, mix: staticSmall, dirs: 2,
		why: "the same inputs through the work-stealing engine: isolates park/wake, deque and blocking-offload hand-offs; changes to the thread-pool engine bypass it",
	},
	{
		name: "fresh_conn", engine: "threadpool", loop: closedFresh, mix: staticSmall, dirs: 2,
		why: "one request per connection: accept, admission, pooled conn state and close per request; accept and conn-pool changes show here and should not move small_keepalive",
	},
	{
		name: "mixed_openloop", engine: "threadpool", loop: openLoop, rate: 8000, dirs: 2,
		mix: mix{static: [4]float64{0.70 * 0.35, 0.70 * 0.50, 0.70 * 0.14, 0.70 * 0.01}, ad: 0.12, dyn: 0.12, post: 0.06},
		why: "independent users at a fixed 8000 req/s with the SPECweb99-like mix: wake-up latency, GC pauses and the dynamic-page bodies set p50/p99; batching or spinning that buys closed-loop throughput pays here",
	},
	{
		name: "churn_large", engine: "threadpool", loop: closedKeepAlive, dirs: 8, materialize: true, cacheBytes: 1 << 20,
		mix: mix{static: [4]float64{0, 0.33, 0.55, 0.12}},
		why: "large bodies over an 8-directory corpus that overflows a 1 MB cache: LFU put/evict under the writer constraint, file lookup, large writev bodies and sendfile(2); engine dispatch is noise here",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// The frozen bands of churn_large: outside them the workload no longer
// exercises what it was built for, and the run fails.
const (
	churnHitRatioMin   = 0.20
	churnHitRatioMax   = 0.60
	churnEvictionsMin  = 0.25 // per request
	churnSendfileMin   = 0.25
	churnSendfileMax   = 0.45
	sendfileFrom       = 64 << 10 // the server's default threshold
	serverMaxKeepAlive = 100      // the server's default requests per connection
	lateP99LimitUs     = 500.0    // open loop: generator lateness beyond this voids the run
	childExitGrace     = 5 * time.Second
	unfinishedGrace    = 2 * time.Second
	maxSetupRepeats    = 2 // set-ups in a row that may lose a warm-up request before the run gives up
	dynamicWork        = 2000
	tapeLen            = 4096 // ops per connection, cycled
	bodySampleEvery    = 64   // bodies are compared in full on every 64th response
	adUsers            = 64
	poolSize           = 64
	// A run is cut into many short windows and reports their median: a
	// disturbance of a second or two (another tenant of the host, a burst
	// of kernel housekeeping) then spoils a few windows, not the number.
	windowLength   = 250 * time.Millisecond
	defaultMeasure = 21 * time.Second
)

// numConns is the generator's connection count: one goroutine each, never
// more than the processors the generator may use.
func numConns() int {
	return min(runtime.NumCPU(), 4)
}

// serverConfig is the server under test: the hardened production shape
// (telemetry attached by the caller, read and write deadlines armed),
// no admission watermark, everything else default.
func (w *workload) serverConfig() webserver.Config {
	return webserver.Config{
		Addr:          "127.0.0.1:0",
		Engine:        engineKind(w.engine),
		PoolSize:      poolSize,
		CacheBytes:    w.cacheBytes,
		HeaderTimeout: 5 * time.Second,
		IdleTimeout:   30 * time.Second,
		WriteTimeout:  5 * time.Second,
	}
}
