package walk

import (
	"context"
	"sync/atomic"

	"rewire/internal/graph"
)

// ContextSource is a Source whose round-trips can be bound to a context, so
// cancellation and deadlines abort in-flight provider queries instead of
// blocking out their latency. osn.Client implements it; plain graphs are
// adapted by AsContextSource.
type ContextSource interface {
	Source
	// NeighborsContext returns v's neighbor list (shared slice, do not
	// modify), honoring ctx for any round-trip the read requires. Unlike
	// Neighbors, failures are returned, not swallowed.
	NeighborsContext(ctx context.Context, v graph.NodeID) ([]graph.NodeID, error)
}

// AsContextSource adapts any Source to a ContextSource. Sources that already
// implement the interface are returned unchanged; others get a trivial
// adapter whose NeighborsContext checks ctx before the (local, non-blocking)
// read — right for in-memory graphs, whose reads never wait on a provider.
func AsContextSource(src Source) ContextSource {
	if cs, ok := src.(ContextSource); ok {
		return cs
	}
	return plainContextSource{src}
}

type plainContextSource struct{ Source }

func (p plainContextSource) NeighborsContext(ctx context.Context, v graph.NodeID) ([]graph.NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.Source.Neighbors(v), nil
}

// Failing is the optional Source capability of reporting that the query
// path has failed (cancellation, deadline, budget exhaustion): a non-nil Err
// means reads are returning truncated lists. Bound implements it; walkers
// surface it through Walker.Err.
type Failing interface {
	Err() error
}

// sourceErr returns src's sticky error when src can report one.
func sourceErr(src Source) error {
	if f, ok := src.(Failing); ok {
		return f.Err()
	}
	return nil
}

// Bound adapts a ContextSource to the plain Source interface under a
// switchable context, so existing walkers — whose Step has no context
// parameter — become cancellable without changing the Walker interface: a
// session binds the context once per run, every query the walkers issue
// through the Bound honors it, and the first failure is latched for the run
// and reported through Err.
//
// On a failed read, Neighbors returns nil — walkers treat that as an
// absorbing position and stay put, which is safe — and the fleet notices the
// latched error (via Walker.Err) and retires the walker without emitting the
// poisoned sample.
//
// Bound forwards the optional capabilities of its inner source (prefetch
// hints, free cached-topology reads) with inert fallbacks when the inner
// source lacks them, so a sampler built over a Bound behaves exactly as one
// built over the inner source directly.
//
// Bound is safe for concurrent use by a fleet and takes no lock: every read
// loads the bound context atomically and the first failure is latched by a
// compare-and-swap, so cache hits through a Bound stay contention-free. Bind
// must not be called while a run is in flight (the session serializes runs).
type Bound struct {
	src    ContextSource
	pf     PrefetchSource
	cached CachedSource

	ctx atomic.Pointer[boundContext]
	err atomic.Pointer[boundError]
}

// boundContext and boundError box the interface values a Bound publishes
// through its atomic pointers.
type (
	boundContext struct{ ctx context.Context }
	boundError   struct{ err error }
)

// NewBound wraps src (adapted via AsContextSource) bound to the background
// context.
func NewBound(src Source) *Bound {
	b := &Bound{src: AsContextSource(src)}
	//rewirelint:allow ctxflow Background is the documented initial state; Bind installs the caller's ctx
	b.ctx.Store(&boundContext{context.Background()})
	b.pf, _ = src.(PrefetchSource)
	b.cached, _ = src.(CachedSource)
	return b
}

// Bind installs ctx as the context for subsequent queries and clears the
// latched error. Call it only between runs, never while walkers are
// stepping.
func (b *Bound) Bind(ctx context.Context) {
	if ctx == nil {
		//rewirelint:allow ctxflow nil means unbound; Background restores the documented initial state
		ctx = context.Background()
	}
	b.ctx.Store(&boundContext{ctx})
	b.err.Store(nil)
}

// Err returns the first query failure since the last Bind (nil if none).
func (b *Bound) Err() error {
	if e := b.err.Load(); e != nil {
		return e.err
	}
	return nil
}

// fail latches the first error of the run; later errors lose the
// compare-and-swap and are dropped.
func (b *Bound) fail(err error) {
	b.err.CompareAndSwap(nil, &boundError{err})
}

// context returns the currently bound context.
func (b *Bound) context() context.Context { return b.ctx.Load().ctx }

// Neighbors returns v's neighbor list under the bound context; on failure it
// latches the error and returns nil.
func (b *Bound) Neighbors(v graph.NodeID) []graph.NodeID {
	nbrs, err := b.src.NeighborsContext(b.context(), v)
	if err != nil {
		b.fail(err)
		return nil
	}
	return nbrs
}

// NeighborsContext delegates to the inner source under the caller's ctx
// (latching failures), so a Bound is itself a ContextSource.
func (b *Bound) NeighborsContext(ctx context.Context, v graph.NodeID) ([]graph.NodeID, error) {
	nbrs, err := b.src.NeighborsContext(ctx, v)
	if err != nil {
		b.fail(err)
	}
	return nbrs, err
}

// Degree returns len(Neighbors(v)) under the bound context (0 on failure).
func (b *Bound) Degree(v graph.NodeID) int { return len(b.Neighbors(v)) }

// Prefetch forwards hints to the inner source's prefetch capability; without
// one every hint is refused.
func (b *Bound) Prefetch(ids ...graph.NodeID) int {
	if b.pf == nil {
		return 0
	}
	return b.pf.Prefetch(ids...)
}

// Known reports whether a prefetch hint for v would be redundant (false when
// the inner source has no prefetch capability).
func (b *Bound) Known(v graph.NodeID) bool {
	if b.pf == nil {
		return false
	}
	return b.pf.Known(v)
}

// CachedNeighbors forwards the inner source's free topology reads (miss when
// it has none).
func (b *Bound) CachedNeighbors(v graph.NodeID) ([]graph.NodeID, bool) {
	if b.cached == nil {
		return nil, false
	}
	return b.cached.CachedNeighbors(v)
}

// CachedDegree forwards the inner source's free degree reads (miss when it
// has none).
func (b *Bound) CachedDegree(v graph.NodeID) (int, bool) {
	if b.cached == nil {
		return 0, false
	}
	return b.cached.CachedDegree(v)
}

// LowDegreeCount forwards the inner source's count of demand-cached users of
// degree 2 or 3 (0 when it has no cache).
func (b *Bound) LowDegreeCount() int64 {
	if b.cached == nil {
		return 0
	}
	return b.cached.LowDegreeCount()
}

var (
	_ Source        = (*Bound)(nil)
	_ ContextSource = (*Bound)(nil)
	_ Failing       = (*Bound)(nil)
)
