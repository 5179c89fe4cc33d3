package runtime

import (
	"time"

	"github.com/flux-lang/flux/internal/core"
)

// Option configures a Server at construction. Options are the public
// configuration surface; the Config struct they populate remains for
// direct in-package use.
type Option func(*Config)

// WithEngine selects the runtime system executing the program (§3.2).
// Any kind registered through RegisterEngine is accepted; the default
// is ThreadPerFlow.
func WithEngine(kind EngineKind) Option {
	return func(c *Config) { c.Kind = kind }
}

// WithPoolSize sets the worker count for the thread-pool engine
// (default 4×GOMAXPROCS).
func WithPoolSize(n int) Option {
	return func(c *Config) { c.PoolSize = n }
}

// WithDispatchers sets the event-loop count of the event-driven engine:
// default 1 for EventDriven, the paper's single-threaded event server,
// and GOMAXPROCS for WorkStealing, one per core.
func WithDispatchers(n int) Option {
	return func(c *Config) { c.Dispatchers = n }
}

// WithAsyncWorkers sizes the event-driven engine's blocking-call
// offload pool (default 16).
func WithAsyncWorkers(n int) Option {
	return func(c *Config) { c.AsyncWorkers = n }
}

// WithObserver attaches an observer to the server's unified
// observability plane: flow terminals (including errors and drops),
// node completions, and queue-depth samples.
func WithObserver(o Observer) Option {
	return func(c *Config) { c.Observer = o }
}

// WithAddedObserver composes an observer with whatever observer the
// config already carries (from WithObserver or an earlier
// WithAddedObserver) instead of replacing it — the way an always-on
// telemetry plane rides alongside a caller's own observer. A nil
// observer is a no-op.
func WithAddedObserver(o Observer) Option {
	return func(c *Config) {
		if o == nil {
			return
		}
		if c.Observer == nil {
			c.Observer = o
			return
		}
		c.Observer = MultiObserver(c.Observer, o)
	}
}

// WithKeepAlive keeps the server running after every source reports
// ErrStop, so flows can still be admitted with Inject until Shutdown.
// Without it a server retires once its sources are exhausted.
func WithKeepAlive() Option {
	return func(c *Config) { c.KeepAlive = true }
}

// WithQueueSampleInterval sets how often engines sample their queue
// depths for the observer (default 100ms). Sampling only runs when an
// observer is attached.
func WithQueueSampleInterval(d time.Duration) Option {
	return func(c *Config) { c.QueueSample = d }
}

// New validates the bindings against the program and prepares a server
// configured by functional options. The returned server is inert until
// Start (or Run).
func New(p *core.Program, b *Bindings, opts ...Option) (*Server, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return NewServer(p, b, cfg)
}
