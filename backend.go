package rewire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"rewire/internal/osn"
)

// Backend is the minimal driver contract of the SDK: one context-first,
// batch-capable fetch. Everything else the sampling stack provides — the
// sharded response cache, per-user singleflight, the paper's unique-query
// demand billing, budgets, and the speculative prefetch pool — is layered on
// top by the Provider returned from Open or BackendSource, identically for
// every backend: a simulated service, a live HTTP endpoint, a read-only CSR
// snapshot, or anything a third party registers via Register.
//
// Backend and its capabilities are defined once, by the client stack this
// package wraps, and aliased here, so any Backend — middleware included —
// plugs into the client unconverted.
//
// Contract:
//
//   - Fetch returns exactly one neighbor list per requested id, in input
//     order, or a non-nil error for the batch as a whole. An empty list is a
//     valid answer for an isolated user.
//   - The one exception is an *IDErrors: the round-trip succeeded but some
//     ids failed on their own. lists[i] is then valid wherever Errs[i] is
//     nil. Backends that cannot tell per-id failures apart simply fail the
//     batch; callers that treat a batch as all-or-nothing may ignore the
//     distinction, since errors.Is still matches every entry's class.
//   - An id outside the backend's user space fails with an error matching
//     ErrNoSuchUser (errors.Is).
//   - Fetch honors ctx: cancellation or deadline expiry aborts the in-flight
//     round-trip and returns the context's error.
//   - Returned slices pass ownership to the caller: the backend must not
//     retain or mutate them (they are cached forever client-side).
//   - Fetch must be safe for concurrent use: the client overlaps misses for
//     different users, and the prefetch pool fetches alongside.
//
// Optional capabilities — UserCounter, RateLimited, io.Closer — are
// discovered by interface probing that follows Unwrap chains, so middleware
// wrappers (WithRetry, WithRateLimit, WithMetrics) never hide them.
type Backend = osn.Backend

// IDErrors is the per-id result of a Fetch whose round-trip succeeded: Errs
// holds one entry per requested id, nil where that id's list is valid. The
// HTTP driver returns it for an unknown id among strangers in one batch POST;
// WithBatching hands each entry to its own demander.
type IDErrors = osn.IDErrors

// UserCounter is the optional Backend capability of publishing the total
// user count — the figure the paper notes real providers publish for
// advertising purposes, and the one Random Jump needs for its ID space.
// Sessions over a backend without it cannot spread starts and must pin them
// with WithStarts.
type UserCounter = osn.UserCounter

// RateLimitInfo is provider-published quota feedback, typically mirrored
// from X-RateLimit-* response headers: the window quota Limit, what is left
// of it (Remaining), and when the window replenishes (Reset, zero when
// unknown).
type RateLimitInfo = osn.RateLimitInfo

// RateLimited is the optional Backend capability of reporting the provider's
// live quota state. ok is false until feedback has been observed.
type RateLimited = osn.RateLimited

// BackendUnwrapper is implemented by middleware that wraps another Backend.
// Capability probing (and Provider.Close) follows the chain, sql-driver
// style, so composition never hides an inner backend's abilities.
type BackendUnwrapper = osn.Unwrapper

// BackendAs resolves capability T anywhere on b's Unwrap chain, outermost
// first — the probing Open and BackendSource do internally. Use it to reach a
// wrapped backend's extras (a WithMetrics Metrics method, a WithBatching
// BatchStatser, a driver-specific statistics interface) without caring how
// the middleware is stacked.
func BackendAs[T any](b Backend) (T, bool) {
	for b := range osn.Chain(b) {
		if t, ok := b.(T); ok {
			return t, true
		}
	}
	var zero T
	return zero, false
}

// closeBackend closes every io.Closer on b's Unwrap chain, returning the
// first error.
func closeBackend(b Backend) error {
	var first error
	for b := range osn.Chain(b) {
		if c, ok := b.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// RetryOptions tunes WithRetry. Zero values select the defaults noted on
// each field.
type RetryOptions struct {
	// MaxAttempts bounds tries per Fetch, first attempt included (default 4).
	MaxAttempts int
	// BaseDelay and MaxDelay bound the exponential backoff: the delay before
	// retry n is min(MaxDelay, BaseDelay·2ⁿ⁻¹) with bounded jitter in
	// [delay/2, delay). Defaults 100ms and 5s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (o RetryOptions) withDefaults() RetryOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 100 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 5 * time.Second
	}
	return o
}

// retry runs fn until it succeeds, fails for good, or MaxAttempts is spent.
// Context errors, ErrNoSuchUser and *IDErrors are final, and so is an error
// declaring itself permanent via Temporary() false. An error carrying a
// provider's Retry-After (RetryDelay) stretches the next wait to it; one
// beyond MaxDelay is returned at once, because sleeping out an hour-long quota
// window would wedge the walk — the caller decides (budget the crawl,
// WithRateLimit, resume later).
func (o RetryOptions) retry(ctx context.Context, fn func() error) error {
	var lastErr error
	var floor time.Duration
	for attempt := 1; attempt <= o.MaxAttempts; attempt++ {
		if attempt > 1 {
			if err := o.wait(ctx, attempt, floor); err != nil {
				return err
			}
		}
		err := fn()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The caller's context ended: report it, not the transport noise.
			return ctx.Err()
		}
		if permanent(err) {
			return err
		}
		floor = 0
		var ra interface{ RetryDelay() time.Duration }
		if errors.As(err, &ra) {
			if floor = ra.RetryDelay(); floor > o.MaxDelay {
				return err
			}
		}
		lastErr = err
	}
	return fmt.Errorf("rewire: %d attempts exhausted: %w", o.MaxAttempts, lastErr)
}

// permanent reports whether retrying err cannot help.
func permanent(err error) bool {
	if isIDErrors(err) || errors.Is(err, ErrNoSuchUser) {
		return true
	}
	var tmp interface{ Temporary() bool }
	return errors.As(err, &tmp) && !tmp.Temporary()
}

// isIDErrors reports whether err is a per-id result rather than a failed
// round-trip.
func isIDErrors(err error) bool {
	var ie *IDErrors
	return errors.As(err, &ie)
}

// wait sleeps out the backoff before the given attempt (2 or later), or floor
// when that is longer.
func (o RetryOptions) wait(ctx context.Context, attempt int, floor time.Duration) error {
	d := o.BaseDelay << (attempt - 2)
	if d > o.MaxDelay || d <= 0 {
		d = o.MaxDelay
	}
	// Bounded jitter: uniform in [d/2, d). Decorrelates a fleet of crawlers
	// without ever waiting less than half the intended delay.
	d = max(d/2+time.Duration(rand.Int64N(int64(d/2)+1)), floor)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// WithRetry wraps b with bounded-jitter exponential-backoff retries. Context
// errors, ErrNoSuchUser and *IDErrors are never retried; anything else is,
// unless it declares itself permanent via `interface{ Temporary() bool }`.
// An error with a `RetryDelay() time.Duration` method (the HTTP driver's
// status errors carry the provider's Retry-After) waits at least that long,
// and is returned at once when the delay exceeds MaxDelay. The http driver
// composes this wrapper itself from its retries, backoff and max_backoff
// parameters.
func WithRetry(b Backend, o RetryOptions) Backend {
	return &retryBackend{inner: b, opt: o.withDefaults()}
}

type retryBackend struct {
	inner Backend
	opt   RetryOptions
}

func (r *retryBackend) Unwrap() Backend { return r.inner }

func (r *retryBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	var lists [][]NodeID
	err := r.opt.retry(ctx, func() (err error) {
		lists, err = r.inner.Fetch(ctx, ids)
		return err
	})
	if err != nil && !isIDErrors(err) {
		return nil, err
	}
	return lists, err
}

// WithRateLimit wraps b with a client-side token bucket: at most rps
// fetches per second with the given burst capacity (burst < 1 is raised to
// 1). Use it to stay politely inside a provider's published quota instead of
// bouncing off 429s. A Fetch blocked on the bucket honors ctx.
func WithRateLimit(b Backend, rps float64, burst int) Backend {
	if burst < 1 {
		burst = 1
	}
	if rps <= 0 {
		return b
	}
	return &rateLimitBackend{
		inner:  b,
		rps:    rps,
		burst:  float64(burst),
		tokens: float64(burst),
		last:   time.Now(),
	}
}

type rateLimitBackend struct {
	inner Backend
	rps   float64
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func (r *rateLimitBackend) Unwrap() Backend { return r.inner }

// take reserves one token, returning how long the caller must wait for it.
func (r *rateLimitBackend) take(now time.Time) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tokens += now.Sub(r.last).Seconds() * r.rps
	if r.tokens > r.burst {
		r.tokens = r.burst
	}
	r.last = now
	r.tokens--
	if r.tokens >= 0 {
		return 0
	}
	return time.Duration(-r.tokens / r.rps * float64(time.Second))
}

// Fetch charges one token per round-trip, however many ids it carries. A
// Fetch blocked on the bucket honors ctx.
func (r *rateLimitBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	if wait := r.take(time.Now()); wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			// Refund the reservation: no request reached the backend, so a
			// cancelled wait must not eat quota (repeated cancellations would
			// otherwise throttle below the configured rate forever).
			r.mu.Lock()
			r.tokens++
			r.mu.Unlock()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	return r.inner.Fetch(ctx, ids)
}

// BackendMetrics accumulates fetch telemetry for a WithMetrics wrapper. All
// counters are atomic; one value may be shared by several wrapped backends.
type BackendMetrics struct {
	fetches  atomic.Int64
	ids      atomic.Int64
	failures atomic.Int64
	nanos    atomic.Int64
	// sizeBuckets is a power-of-two batch-size histogram: bucket 0 counts
	// single-id fetches, bucket i fetches of (2^(i-1), 2^i] ids, the last
	// bucket everything larger. It makes coalescing visible: a dispatcher
	// doing its job moves mass out of bucket 0.
	sizeBuckets [8]atomic.Int64
}

// MetricsSnapshot is a point-in-time copy of a BackendMetrics.
type MetricsSnapshot struct {
	// Fetches and IDs count Fetch calls and the ids they carried; Failures
	// counts calls whose round-trip failed (an *IDErrors is an answer, not a
	// failure).
	Fetches, IDs, Failures int64
	// Total is the summed wall-clock of all Fetch calls.
	Total time.Duration
	// BatchSizeBuckets is a power-of-two histogram of ids per Fetch:
	// bucket 0 counts single-id calls, bucket i calls of (2^(i-1), 2^i] ids
	// (2, ≤4, ≤8, ≤16, ≤32, ≤64), the last bucket everything above 64.
	BatchSizeBuckets [8]int64
}

// Snapshot returns the current counters.
func (m *BackendMetrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Fetches:  m.fetches.Load(),
		IDs:      m.ids.Load(),
		Failures: m.failures.Load(),
		Total:    time.Duration(m.nanos.Load()),
	}
	for i := range m.sizeBuckets {
		s.BatchSizeBuckets[i] = m.sizeBuckets[i].Load()
	}
	return s
}

// WithMetrics wraps b so every Fetch updates m. Nil m allocates a fresh one;
// read it back via the returned backend's Metrics method (probe with
// backend.(interface{ Metrics() *BackendMetrics })) or keep your own handle.
func WithMetrics(b Backend, m *BackendMetrics) Backend {
	if m == nil {
		m = &BackendMetrics{}
	}
	return &metricsBackend{inner: b, m: m}
}

type metricsBackend struct {
	inner Backend
	m     *BackendMetrics
}

func (mb *metricsBackend) Unwrap() Backend          { return mb.inner }
func (mb *metricsBackend) Metrics() *BackendMetrics { return mb.m }

func (mb *metricsBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	start := time.Now()
	lists, err := mb.inner.Fetch(ctx, ids)
	mb.m.fetches.Add(1)
	mb.m.ids.Add(int64(len(ids)))
	if len(ids) > 0 {
		mb.m.sizeBuckets[batchSizeBucket(len(ids))].Add(1)
	}
	mb.m.nanos.Add(time.Since(start).Nanoseconds())
	if err != nil && !isIDErrors(err) {
		mb.m.failures.Add(1)
	}
	return lists, err
}
