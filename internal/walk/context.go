package walk

import (
	"context"
	"sync/atomic"

	"rewire/internal/graph"
)

// ContextSource is a Source whose round-trips can be bound to a context, so
// cancellation and deadlines abort in-flight provider queries instead of
// blocking out their latency. osn.Client and every rewire.Source implement
// it.
type ContextSource interface {
	Source
	// NeighborsContext returns v's neighbor list (shared slice, do not
	// modify), honoring ctx for any round-trip the read requires. Unlike
	// Neighbors, failures are returned, not swallowed.
	NeighborsContext(ctx context.Context, v graph.NodeID) ([]graph.NodeID, error)
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
// A fleet member can read through its own view of a Bound (Member), whose
// queries carry the member's Seat, so that a batching layer below can tell
// one member's round trips from another's.
//
// Bound is safe for concurrent use by a fleet and takes no lock: every read
// loads the bound context atomically and the first failure is latched by a
// compare-and-swap, so cache hits through a Bound stay contention-free. Bind
// and Member must not be called while a run is in flight (the session
// serializes runs).
type Bound struct {
	src    ContextSource
	pf     PrefetchSource
	cached CachedSource

	// root is the Bound whose binding and latched error this one shares:
	// itself, or the Bound a member view was made from. seat tags a member
	// view's queries (nil on a root), and members lists the root's views,
	// which Bind rebinds.
	root    *Bound
	seat    Seat
	members []*Bound

	ctx atomic.Pointer[boundContext]
	err atomic.Pointer[boundError] // the root's is the one latched
}

// Seat names one fleet member on the query path below a Bound (osn.Seat is
// one): Tag marks the contexts of the member's queries, and Leave tells the
// path that the member is done with any place a batching layer holds for
// it.
type Seat interface {
	Tag(ctx context.Context) context.Context
	Leave()
}

// Leaver is the optional Source and Walker capability of telling the query
// path that the caller sends no more queries this run. A fleet member calls
// it when it retires; Bound member views implement it, and the baseline
// walkers and Prefetched forward it to their source or inner walker.
type Leaver interface {
	Leave()
}

// boundContext and boundError box the interface values a Bound publishes
// through its atomic pointers.
type (
	boundContext struct{ ctx context.Context }
	boundError   struct{ err error }
)

// NewBound wraps src bound to the background context.
func NewBound(src ContextSource) *Bound {
	b := &Bound{src: src}
	b.root = b
	//rewirelint:allow ctxflow Background is the documented initial state; Bind installs the caller's ctx
	b.ctx.Store(&boundContext{context.Background()})
	b.pf, _ = src.(PrefetchSource)
	b.cached, _ = src.(CachedSource)
	return b
}

// Bind installs ctx as the context for subsequent queries — of the root
// and, each tagged with its seat, of every member view — and clears the
// latched error. Call it only between runs, never while walkers are
// stepping.
func (b *Bound) Bind(ctx context.Context) { b.bind(ctx, true) }

// BindUnseated is Bind for a run that steps every member on one goroutine:
// the member views read under ctx without their seats, because all their
// queries are that one goroutine's.
func (b *Bound) BindUnseated(ctx context.Context) { b.bind(ctx, false) }

func (b *Bound) bind(ctx context.Context, seated bool) {
	if ctx == nil {
		//rewirelint:allow ctxflow nil means unbound; Background restores the documented initial state
		ctx = context.Background()
	}
	r := b.root
	r.ctx.Store(&boundContext{ctx})
	for _, m := range r.members {
		mctx := ctx
		if seated {
			mctx = m.seat.Tag(ctx)
		}
		m.ctx.Store(&boundContext{mctx})
	}
	r.err.Store(nil)
}

// Member returns a view of b for one fleet member: it reads the same
// source under the same binding and latches into the same error, but every
// query it issues under the bound context carries seat, and its Leave
// leaves seat. Call it only between runs.
func (b *Bound) Member(seat Seat) *Bound {
	r := b.root
	m := &Bound{src: r.src, pf: r.pf, cached: r.cached, root: r, seat: seat}
	m.ctx.Store(&boundContext{seat.Tag(r.context())})
	r.members = append(r.members, m)
	return m
}

// Leave leaves a member view's seat (nothing on a root).
func (b *Bound) Leave() {
	if b.seat != nil {
		b.seat.Leave()
	}
}

// Err returns the first query failure since the last Bind (nil if none).
func (b *Bound) Err() error {
	if e := b.root.err.Load(); e != nil {
		return e.err
	}
	return nil
}

// fail latches the first error of the run; later errors lose the
// compare-and-swap and are dropped.
func (b *Bound) fail(err error) {
	b.root.err.CompareAndSwap(nil, &boundError{err})
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
	_ Leaver        = (*Bound)(nil)
)
