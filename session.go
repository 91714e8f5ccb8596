package rewire

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sync"
	"sync/atomic"

	"rewire/internal/core"
	"rewire/internal/diag"
	"rewire/internal/estimate"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

// Sample is one node drawn by a session walker, tagged with its provenance:
// Walker is the index of the fleet member that drew it, and Weight is a
// quantity proportional to the member's stationary probability at Node — the
// importance-sampling denominator that unbiases aggregates.
type Sample = walk.Sample

// Session is a long-lived, resumable sampling run over a Source: k walkers
// (WithFleet) advancing the configured chain (WithAlgorithm), sharing the
// source's cache and query budget and — for MTO — one on-the-fly rewired
// overlay. Construct it with NewSession, then draw samples with Stream,
// Nodes, Samples, or Estimate.
//
// Runs are serialized: one Stream/Estimate at a time (walkers are
// single-goroutine state; the fleet parallelism lives inside a run). The
// session itself survives any number of runs — cancel a stream, come back
// with a fresh context, and the walkers resume from their positions with the
// cache, ledger, and overlay intact. That is what makes deadline-bounded,
// interruptible crawls expressible: cancellation loses at most the samples
// not yet yielded, never the paid-for topology.
type Session struct {
	src      Source
	provider *Provider // nil for graph backends
	bound    *walk.Bound
	fleet    *walk.Fleet
	overlay  *core.Overlay // nil unless AlgMTO
	seats    []*osn.Seat   // the members' seats; nil for MTO
	cfg      config

	mu      sync.Mutex
	running bool
	err     error // why the last run aborted (nil for clean completion)

	// pauseReq marks the active run as pause-requested: walkers stop at the
	// next step boundary (Fleet.Quiesce) and the run reports ErrPaused rather
	// than clean completion, so callers can tell "budget drained" from
	// "pause honored". Reset by the next begin.
	pauseReq atomic.Bool
}

// NewSession builds a session over src with the given options. Construction
// is cheap and query-free: validation that needs topology (e.g. whether a
// start node is connected) happens on the first run, under that run's
// context.
func NewSession(src Source, opts ...Option) (*Session, error) {
	cfg := defaults()
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if cfg.src != nil {
		if src != nil {
			return nil, fmt.Errorf("rewire: WithSource conflicts with NewSession's src argument — pass one or the other")
		}
		src = cfg.src
	}
	return newSession(src, cfg)
}

// newSession constructs a session from a folded config — the shared back
// half of NewSession and Resume.
func newSession(src Source, cfg config) (*Session, error) {
	if src == nil {
		return nil, fmt.Errorf("rewire: nil Source")
	}
	k := cfg.fleet
	switch {
	case len(cfg.starts) > 0 && k == 0:
		k = len(cfg.starts)
	case len(cfg.starts) > 0 && k != len(cfg.starts):
		return nil, fmt.Errorf("rewire: WithFleet(%d) disagrees with %d starts", k, len(cfg.starts))
	case k == 0:
		k = 1
	}
	n := src.NumUsers()
	if n < 0 || n > math.MaxInt32 {
		// NodeID is int32; a count outside its range can only come from a
		// misbehaving provider, and SpreadStarts would size a buffer by it.
		return nil, fmt.Errorf("rewire: source publishes %d users, outside [0, %d]", n, math.MaxInt32)
	}
	if n == 0 {
		// A backend without the UserCounter capability (or an empty source)
		// publishes no ID space: starts cannot be spread or range-validated,
		// and Random Jump has nowhere to jump. Explicit starts keep every
		// other chain usable — a bad start surfaces as ErrNoSuchUser on the
		// first-run connectivity check instead.
		if len(cfg.starts) == 0 {
			return nil, fmt.Errorf("rewire: source publishes no user count — pin start nodes with WithStarts")
		}
		if cfg.alg == AlgRJ {
			return nil, fmt.Errorf("rewire: AlgRJ needs a published user count for its jump ID space")
		}
	}
	r := rng.New(cfg.seed)
	starts := cfg.starts
	if len(starts) == 0 {
		starts = core.SpreadStarts(k, n, r)
		if len(starts) < k {
			return nil, fmt.Errorf("rewire: fleet of %d exceeds %d users", k, n)
		}
	}
	for _, v := range starts {
		if v < 0 || (n > 0 && int(v) >= n) {
			return nil, fmt.Errorf("%w: start %d", ErrNoSuchUser, v)
		}
	}

	s := &Session{src: src, cfg: cfg}
	s.provider, _ = src.(*Provider)
	// Bind walkers to the provider's client (not the Provider wrapper) so
	// the capability probes — prefetch hints, free cached-degree reads for
	// Theorem 5 — find the real implementations.
	var inner walk.ContextSource = src
	if s.provider != nil {
		inner = s.provider.client
	}
	s.bound = walk.NewBound(inner)

	// A member that reads alone does so through its own view of the bound
	// source, whose seat tells a WithBatching dispatcher below which member
	// a round trip released, and gives up the member's place in the next one
	// when it retires. MTO members share one overlay and read unseated.
	seated := func() *walk.Bound {
		seat := osn.NewSeat()
		s.seats = append(s.seats, seat)
		return s.bound.Member(seat)
	}
	members := make([]walk.Walker, k)
	switch cfg.alg {
	case AlgMTO:
		s.overlay = core.NewOverlay(s.bound)
		for i, start := range starts {
			members[i] = core.NewSamplerOn(s.overlay, start, cfg.core, r.Split())
		}
	case AlgSRW:
		for i, start := range starts {
			members[i] = walk.NewSimple(seated(), start, r.Split())
		}
	case AlgMHRW:
		for i, start := range starts {
			members[i] = walk.NewMetropolisHastings(seated(), start, r.Split())
		}
	case AlgRJ:
		for i, start := range starts {
			members[i] = walk.NewRandomJump(seated(), start, n, cfg.pJump, r.Split())
		}
	}
	if pf := cfg.prefetch; pf != nil {
		// Wrap every member with a per-member hinting strategy (strategies
		// are single-goroutine state, one instance each).
		for i, m := range members {
			switch pf.Strategy {
			case PrefetchFrontier:
				members[i] = walk.WithPrefetch(m, walk.NewFrontier(s.bound))
			default:
				members[i] = walk.WithPrefetch(m, walk.NewNextHop(s.bound))
			}
		}
	}
	s.fleet = walk.NewFleet(members...)
	return s, nil
}

// Walkers returns the fleet size.
func (s *Session) Walkers() int { return len(s.fleet.Members()) }

// Positions returns each walker's current node — checkpoint state a caller
// can persist alongside the provider's cache to resume a crawl elsewhere.
// Walker positions are single-goroutine state, so Positions is only
// meaningful between runs: during an active Stream/Estimate it returns nil
// rather than racing the walker goroutines.
func (s *Session) Positions() []NodeID {
	s.mu.Lock()
	active := s.running
	s.mu.Unlock()
	if active {
		return nil
	}
	members := s.fleet.Members()
	out := make([]NodeID, len(members))
	for i, m := range members {
		out[i] = m.Current()
	}
	return out
}

// UniqueQueries returns the session backend's unique-query bill (0 for free
// graph backends).
func (s *Session) UniqueQueries() int64 {
	if s.provider == nil {
		return 0
	}
	return s.provider.UniqueQueries()
}

// Rewired returns the overlay's net edge delta (removals, additions) for MTO
// sessions; zeros otherwise.
func (s *Session) Rewired() (removed, added int) {
	if s.overlay == nil {
		return 0, 0
	}
	return s.overlay.RemovedCount(), s.overlay.AddedCount()
}

// MaterializeOverlay builds the current rewired topology as a concrete
// graph. It reads every node's base neighborhood, so over a Provider it
// spends budget like a full crawl; over a GraphSource it is free. Non-MTO
// sessions return ErrNoOverlay.
func (s *Session) MaterializeOverlay() (*Graph, error) {
	if s.overlay == nil {
		return nil, ErrNoOverlay
	}
	return s.overlay.Materialize(s.src.NumUsers()), nil
}

// Err returns why the last run stopped early (context cancellation, deadline,
// ErrBudgetExhausted, ...), or nil after a clean completion. It is the
// error-reporting side of the plain-Sample iterators (Nodes, and Stream
// bodies that break early).
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// begin claims the session for one run and binds ctx to its query path,
// with each member's queries on its own seat when seated (the members step
// on goroutines of their own).
func (s *Session) begin(ctx context.Context, seated bool) error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return ErrActiveStream
	}
	s.running = true
	s.err = nil
	s.mu.Unlock()
	s.pauseReq.Store(false)
	if err := ctx.Err(); err != nil {
		// A dead-on-arrival context is still a run that aborted: record the
		// reason so the Nodes()+Err() pattern sees it.
		s.finish(err)
		return err
	}
	if seated {
		s.bound.Bind(ctx)
	} else {
		s.bound.BindUnseated(ctx)
	}
	if pf := s.cfg.prefetch; pf != nil && s.provider != nil {
		s.provider.client.StartPrefetchContext(ctx, osn.PrefetchConfig{
			Workers: pf.Workers,
			Depth:   pf.Depth,
		})
	}
	// Connectivity check on each walker's current node: its neighbor list is
	// the first thing the next step demands anyway (and is cached after), so
	// this costs no extra unique queries. Over a provider the cold misses
	// are batched first so their round-trips overlap instead of paying k
	// RealLatencies end to end.
	members := s.fleet.Members()
	if s.provider != nil && len(members) > 1 {
		ids := make([]NodeID, len(members))
		for i, m := range members {
			ids[i] = m.Current()
		}
		if _, err := s.provider.client.QueryBatchContext(ctx, ids); err != nil {
			s.finish(err)
			return err
		}
	}
	for _, m := range members {
		nbrs, err := s.bound.NeighborsContext(ctx, m.Current())
		if err != nil {
			s.finish(err)
			return err
		}
		if len(nbrs) == 0 {
			err := fmt.Errorf("%w: node %d", ErrDisconnected, m.Current())
			s.finish(err)
			return err
		}
	}
	if seated && s.provider != nil {
		// Every member is about to step: a dispatcher holds the first miss
		// for the others, so they start on one round trip.
		s.provider.client.Expect(s.seats...)
	}
	return nil
}

// finish releases the run claim and records why the run ended.
func (s *Session) finish(err error) {
	if s.cfg.prefetch != nil && s.provider != nil {
		s.provider.client.StopPrefetch()
	}
	s.mu.Lock()
	s.err = err
	s.running = false
	s.mu.Unlock()
}

// Pause asks the active run to stop at the next step boundary: every walker
// finishes and delivers its in-flight step, then retires, and the run ends
// with ErrPaused. Unlike cancelling the run's context — which can abort a
// walker mid-step, after its RNG stream advanced but before the sample was
// emitted — a pause leaves every chain's state exactly consistent with the
// samples delivered, which is what makes a Checkpoint taken afterwards
// Resume byte-identically: the resumed trajectory continues precisely where
// an uninterrupted run would have gone. Safe from any goroutine; a no-op
// when no run is active (the next run resets the request).
func (s *Session) Pause() {
	s.pauseReq.Store(true)
	s.fleet.Quiesce()
}

// abortErr explains an early stop: the query path's sticky failure when
// there is one (it is the more specific: budget exhaustion, a provider
// error), else the context's, else — for a run that stopped only because
// Pause asked it to — ErrPaused.
func (s *Session) abortErr(ctx context.Context) error {
	if err := s.bound.Err(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.pauseReq.Load() {
		return ErrPaused
	}
	return nil
}

// Stream draws up to total samples as a single-use iterator of (Sample,
// error) pairs: range over it to walk, break to stop. Samples arrive with a
// nil error; when the run aborts early — ctx cancelled, deadline expired,
// budget exhausted — the final pair carries the zero Sample and the reason,
// and iteration ends. A clean drain of the budgeted total yields no error
// pair. A negative total yields a single error pair without starting a run.
//
// Fleet members race for the shared budget (WithPartitionedBudget splits it
// instead); merged arrival order is nondeterministic, but each member's own
// subsequence is a faithful trajectory. Members hand samples over in blocks
// of up to 64, or once 1 ms has passed since a block's first step, so
// consecutive samples usually come from one member, and a slow source still
// streams sample by sample. Whatever ends the loop — completion, break,
// cancellation — every walker goroutine has exited by the time the range
// statement returns, and the session is immediately reusable. A break drops
// what the fleet had stepped but not yet yielded: the rest of the block
// being yielded, up to k blocks queued for the consumer, and each member's
// open block — at most (2k+1)·64 samples over a fleet of k. Pause drops
// nothing: every stepped sample is yielded before the run ends.
func (s *Session) Stream(ctx context.Context, total int) iter.Seq2[Sample, error] {
	return func(yield func(Sample, error) bool) {
		if total < 0 {
			yield(Sample{}, fmt.Errorf("rewire: negative sample total %d", total))
			return
		}
		if err := s.begin(ctx, true); err != nil {
			yield(Sample{}, err)
			return
		}
		var runErr error
		defer func() { s.finish(runErr) }()
		var stream iter.Seq[Sample]
		var stop func()
		if s.cfg.partitioned {
			stream, stop = s.fleet.StreamPartitionedContext(ctx, total)
		} else {
			stream, stop = s.fleet.StreamContext(ctx, total)
		}
		defer func() {
			stop()
			for range stream { // wait for every walker goroutine to retire
			}
		}()
		for smp := range stream {
			if !yield(smp, nil) {
				return
			}
		}
		if runErr = s.abortErr(ctx); runErr != nil {
			yield(Sample{}, runErr)
		}
	}
}

// Nodes is Stream reduced to the visited nodes: a plain iter.Seq for callers
// that only need positions. Check Err after the loop to distinguish a
// drained budget from an aborted run.
func (s *Session) Nodes(ctx context.Context, total int) iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		for smp, err := range s.Stream(ctx, total) {
			if err != nil {
				return
			}
			if !yield(smp.Node) {
				return
			}
		}
	}
}

// Samples drains Stream(ctx, total) into a slice. On an aborted run it
// returns the samples drawn so far alongside the abort reason.
func (s *Session) Samples(ctx context.Context, total int) ([]Sample, error) {
	out := make([]Sample, 0, max(total, 0))
	for smp, err := range s.Stream(ctx, total) {
		if err != nil {
			return out, err
		}
		out = append(out, smp)
	}
	return out, nil
}

// Attrs carries the published per-user attributes an Aggregate may consume.
// No built-in Source publishes attributes — every backend answers with
// neighbor lists only — so Session.Estimate hands aggregates zero Attrs. An
// attribute aggregate closes over its attribute table instead and reads it
// by the sampled user v in its Value function (see examples/gplus).
type Attrs = estimate.Attrs

// Aggregate is a per-user quantity being averaged over the network, e.g.
// degree or self-description length.
type Aggregate = estimate.Aggregate

// AvgDegree is the paper's default aggregate: the network's average degree.
func AvgDegree() Aggregate { return estimate.AvgDegree() }

// EstimateOptions tunes Session.Estimate.
type EstimateOptions struct {
	// Samples is the number of post-burn-in samples to draw (default 1000).
	// As in the paper, every post-burn-in step is a sample.
	Samples int
	// BurnIn enables Geweke-monitored burn-in: the walk runs until the
	// degree trace converges (or MaxBurnInSteps) before sampling starts.
	BurnIn bool
	// GewekeThreshold overrides the convergence threshold (default the
	// diagnostic's standard 0.1).
	GewekeThreshold float64
	// MaxBurnInSteps caps the burn-in phase (default 100000).
	MaxBurnInSteps int
}

// Result reports one Estimate run.
type Result struct {
	// Estimate is the importance-weighted estimate of the aggregate.
	Estimate float64
	// Samples is the number of samples actually recorded.
	Samples int
	// BurnInSteps is the number of steps spent before sampling.
	BurnInSteps int
	// Converged reports whether the burn-in monitor fired (false when capped
	// or burn-in was disabled).
	Converged bool
	// UniqueQueries is the backend's ledger after the run (0 for free graph
	// backends).
	UniqueQueries int64
	// Trajectory is the running estimate against the ledger across the
	// sampling phase: at most a few hundred points, evenly spaced in
	// samples, the last one (UniqueQueries, Estimate). Its costs are all 0
	// over free graph backends.
	Trajectory []TrajectoryPoint
}

// TrajectoryPoint is one (unique-query cost, running estimate) observation
// of a Result's trajectory.
type TrajectoryPoint = estimate.TrajectoryPoint

// Estimate runs the paper's estimation protocol under ctx: optional
// Geweke-monitored burn-in, then importance-weighted sampling of agg, the
// walkers advancing round-robin from member 0 so every fleet member
// contributes evenly.
// Cancellation, deadline expiry, and budget exhaustion end the run early
// with the partial result and the reason.
func (s *Session) Estimate(ctx context.Context, agg Aggregate, opt EstimateOptions) (Result, error) {
	if opt.Samples <= 0 {
		opt.Samples = 1000
	}
	// The members step round-robin on this goroutine: one caller, so
	// they read unseated.
	if err := s.begin(ctx, false); err != nil {
		return Result{}, err
	}
	var runErr error
	defer func() { s.finish(runErr) }()

	var monitor diag.Monitor
	if opt.BurnIn {
		threshold := opt.GewekeThreshold
		if threshold <= 0 {
			threshold = diag.DefaultThreshold
		}
		monitor = diag.NewGeweke(threshold, 200)
	}
	cost := func() int64 { return 0 } // graph backends are free
	if s.provider != nil {
		cost = s.provider.UniqueQueries
	}
	info := func(v NodeID) (int, Attrs) { return s.bound.Degree(v), Attrs{} }
	// Stop runs once per step: poll ctx with a non-blocking receive on its
	// Done channel, which, unlike cancelCtx.Err, takes no mutex.
	done := ctx.Done()
	res := estimate.RunSession(s.fleet.Members(), agg, info, cost, estimate.SessionConfig{
		BurnIn:         monitor,
		MaxBurnInSteps: opt.MaxBurnInSteps,
		Samples:        opt.Samples,
		Stop: func() bool {
			select {
			case <-done:
				return true
			default:
				return s.bound.Err() != nil || s.pauseReq.Load()
			}
		},
	})
	out := Result{
		Estimate:      res.Estimate,
		Samples:       res.Samples,
		BurnInSteps:   res.BurnInSteps,
		Converged:     res.BurnInConverged,
		UniqueQueries: res.FinalCost,
		Trajectory:    res.Trajectory,
	}
	runErr = s.abortErr(ctx)
	return out, runErr
}
