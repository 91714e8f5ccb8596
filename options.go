package rewire

import (
	"fmt"

	"rewire/internal/core"
)

// Algorithm selects the sampling chain a Session runs.
type Algorithm int

const (
	// AlgMTO is the paper's contribution: a simple random walk over a
	// virtual overlay that is rewired on-the-fly (Theorem 3/5 removals,
	// Theorem 4 replacements) to mix faster at the same query cost.
	AlgMTO Algorithm = iota
	// AlgSRW is the baseline simple random walk.
	AlgSRW
	// AlgMHRW is Metropolis–Hastings with a uniform target.
	AlgMHRW
	// AlgRJ is Random Jump: MHRW with uniform restarts (needs the global ID
	// space, which every Source here publishes via NumUsers).
	AlgRJ
)

// String names the algorithm the way the paper does.
func (a Algorithm) String() string {
	switch a {
	case AlgMTO:
		return "MTO"
	case AlgSRW:
		return "SRW"
	case AlgMHRW:
		return "MHRW"
	case AlgRJ:
		return "RJ"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// WeightMode selects how an MTO session computes the overlay degree k*(v)
// that unbiases its samples (π*(v) ∝ k*(v)).
type WeightMode int

const (
	// WeightOverlayDegree uses the current overlay degree — free, and exact
	// once the walk has classified the edges around v. The default.
	WeightOverlayDegree WeightMode = iota
	// WeightExact classifies every incident edge of v on demand before
	// reporting the degree (more queries, tightest weights).
	WeightExact
	// WeightSampled estimates k*(v) from a random sample of v's incident
	// edges — the paper's cheap middle ground.
	WeightSampled
)

// PrefetchStrategy selects which speculative queries a session issues as its
// walkers advance. Speculation never changes trajectories or unique-query
// bills — prefetched responses stay invisible to the cost ledger until a
// demand query consumes them — only wall-clock.
type PrefetchStrategy int

const (
	// PrefetchNextHop hints the node each walker just landed on, whose
	// neighbor list the next step must demand.
	PrefetchNextHop PrefetchStrategy = iota
	// PrefetchFrontier additionally hints the top 8 cold frontier nodes
	// ranked by cache-visible degree — the nodes the walk is most likely to
	// demand soon.
	PrefetchFrontier
)

// PrefetchOptions configures a session's speculative query pipeline
// (WithPrefetch). The zero value selects next-hop hints with default pool
// sizing. The pool's pending-hint queue holds 1024 hints; hints beyond it
// are dropped, which is always safe for a bet.
type PrefetchOptions struct {
	// Strategy picks the hinting policy.
	Strategy PrefetchStrategy
	// Workers is the number of concurrent speculative round-trips (default
	// 16, at most 4096).
	Workers int
	// Depth is the recursive lookahead: after fetching a hinted node, its
	// still-unknown neighbors are re-enqueued with Depth-1.
	Depth int
}

// config accumulates functional options; the zero value plus defaults() is a
// valid single-walker MTO session.
type config struct {
	alg         Algorithm
	core        core.Config
	fleet       int // 0 = unset
	starts      []NodeID
	seed        uint64
	pJump       float64
	partitioned bool
	prefetch    *PrefetchOptions
	src         Source // WithSource; the backend for Resume (and an alternative spelling for NewSession)
	err         error  // first option-validation failure, surfaced by NewSession
}

// Option configures a Session at construction.
type Option func(*config)

// maxPrefetchWorkers bounds the prefetch goroutines a session starts. No
// useful session comes near it; it exists so that Resume, which routes a
// checkpoint's fields through the same validators, cannot be talked into
// starting goroutines without limit.
const maxPrefetchWorkers = 4096

func defaults() config {
	return config{
		alg:   AlgMTO,
		core:  core.DefaultConfig(),
		seed:  1,
		pJump: 0.5,
	}
}

func (c *config) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithAlgorithm selects the sampling chain (default AlgMTO).
func WithAlgorithm(a Algorithm) Option {
	return func(c *config) {
		if a < AlgMTO || a > AlgRJ {
			c.fail(fmt.Errorf("rewire: unknown algorithm %d", int(a)))
			return
		}
		c.alg = a
	}
}

// WithRemoval toggles the Theorem 3/5 edge-removal operation of an MTO
// session (default on). Turning both removal and replacement off degrades
// MTO to a plain SRW at overlay bookkeeping cost — use AlgSRW instead.
func WithRemoval(on bool) Option {
	return func(c *config) { c.core.EnableRemoval = on }
}

// WithReplacement toggles the Theorem 4 degree-3 replacement operation of an
// MTO session (default on).
func WithReplacement(on bool) Option {
	return func(c *config) { c.core.EnableReplacement = on }
}

// WithExtendedCriterion toggles the Theorem 5 extension, which strengthens
// the removal test with degree knowledge already in the local cache (default
// on; silently degrades to Theorem 3 over backends without a cache).
func WithExtendedCriterion(on bool) Option {
	return func(c *config) { c.core.UseExtended = on }
}

// WithWeightMode selects the importance-weight computation of an MTO session
// (default WeightOverlayDegree).
func WithWeightMode(m WeightMode) Option {
	return func(c *config) {
		switch m {
		case WeightOverlayDegree:
			c.core.Weights = core.WeightOverlayDegree
		case WeightExact:
			c.core.Weights = core.WeightExact
		case WeightSampled:
			c.core.Weights = core.WeightSampled
		default:
			c.fail(fmt.Errorf("rewire: unknown weight mode %d", int(m)))
		}
	}
}

// WithFleet runs k concurrent walkers (default 1) sharing one source cache,
// one query budget, and — for MTO — one rewired overlay, so every walker
// benefits from every other's discoveries and their round-trips overlap.
func WithFleet(k int) Option {
	return func(c *config) {
		if k < 1 {
			c.fail(fmt.Errorf("rewire: fleet size %d < 1", k))
			return
		}
		c.fleet = k
	}
}

// WithStarts pins the walkers' start nodes. Without it, starts are spread
// uniformly over the ID space from the session seed. When WithFleet is also
// given, the counts must agree; alone, the start count sets the fleet size.
func WithStarts(starts ...NodeID) Option {
	return func(c *config) {
		if len(starts) == 0 {
			c.fail(fmt.Errorf("rewire: WithStarts needs at least one node"))
			return
		}
		c.starts = append([]NodeID(nil), starts...)
	}
}

// WithSeed fixes the session's RNG seed (default 1). Each walker gets a
// split stream, so single-walker or partitioned runs are reproducible
// sample-for-sample.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithJumpProbability sets AlgRJ's teleport probability (default 0.5, the
// paper's setting).
func WithJumpProbability(p float64) Option {
	return func(c *config) {
		if p < 0 || p > 1 {
			c.fail(fmt.Errorf("rewire: jump probability %v outside [0, 1]", p))
			return
		}
		c.pJump = p
	}
}

// WithPartitionedBudget splits the sample budget up front — walker i draws
// exactly total/k samples — instead of letting members race for it. Each
// member's trajectory then depends only on its own RNG stream, so runs are
// reproducible; racing (the default) finishes as soon as the fastest members
// drain the budget.
func WithPartitionedBudget(on bool) Option {
	return func(c *config) { c.partitioned = on }
}

// WithSource supplies the network backend as an option. It exists for
// Resume, whose signature has no Source parameter: a checkpoint deliberately
// carries no backend (the bytes must be portable across processes, and the
// whole point of resuming inside a service is to reattach to a SHARED
// provider whose cache other tenants keep warming), so the caller names the
// backend explicitly — typically the same Provider, or one rebuilt over the
// same URL. Passing it to NewSession instead of the src argument is also
// allowed (pass nil there); passing both is an error.
func WithSource(src Source) Option {
	return func(c *config) {
		if src == nil {
			c.fail(fmt.Errorf("rewire: WithSource(nil)"))
			return
		}
		c.src = src
	}
}

// WithPrefetch enables the speculative query pipeline: a worker pool fetches
// the nodes the walk is likely to demand next, overlapping their round-trips
// with the walk itself. Only provider backends benefit (a GraphSource has no
// latency to hide). The pool is started per run, bound to the run's context
// — a deadline aborts speculation with the walk.
func WithPrefetch(o PrefetchOptions) Option {
	return func(c *config) {
		switch {
		case o.Strategy < PrefetchNextHop || o.Strategy > PrefetchFrontier:
			c.fail(fmt.Errorf("rewire: unknown prefetch strategy %d", int(o.Strategy)))
			return
		case o.Workers > maxPrefetchWorkers:
			c.fail(fmt.Errorf("rewire: %d prefetch workers > %d", o.Workers, maxPrefetchWorkers))
			return
		}
		c.prefetch = &o
		c.core.Prefetch = true
	}
}
