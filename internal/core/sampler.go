package core

import (
	"rewire/internal/graph"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

// WeightMode selects how StationaryWeight obtains the overlay degree k*(v)
// that unbiases MTO samples (paper §IV-A: τ*(u) = k*_u / 2|E*|).
type WeightMode int

const (
	// WeightOverlayDegree uses the current overlay degree — free, and exact
	// once the walk has classified the edges around v.
	WeightOverlayDegree WeightMode = iota
	// WeightExact classifies every incident edge of v on demand (queries
	// all neighbors) before reporting the degree.
	WeightExact
	// WeightSampled estimates k*(v) from a random sample of v's incident
	// edges — the paper's "draw simple random sample from u's neighbors in
	// G*" suggestion. Sample size is Config.DegreeSample.
	WeightSampled
)

// CriterionBase selects which neighborhoods the removal criterion is
// evaluated against. The paper's Theorems 3/5 are stated as static
// properties of the original graph G, and Algorithm 1 tests edges with the
// neighborhoods the queries return — i.e., original lists (EvalOriginal).
// Evaluated inductively against the evolving overlay instead (EvalOverlay),
// each removal is individually conductance-safe on the current graph, but
// the process reaches a much denser fixpoint (on the barbell running
// example: Φ* ≈ 0.022 versus ≈ 0.05–0.07 for EvalOriginal, the paper
// reporting 0.053). The criterion ablation benchmarks in bench_test.go
// quantify both; EvalOriginal is the default because it reproduces the
// paper's magnitudes.
type CriterionBase int

const (
	// EvalOriginal tests the criterion on original (queried) neighborhoods.
	// Removals are guarded: both endpoints keep overlay degree >= 2 and at
	// least one common overlay neighbor, so the overlay stays connected.
	EvalOriginal CriterionBase = iota
	// EvalOverlay tests the criterion on current overlay neighborhoods.
	EvalOverlay
)

// Config tunes the MTO-Sampler. The zero value is NOT valid; use
// DefaultConfig and adjust.
type Config struct {
	// EnableRemoval switches Theorem 3/5 edge removal.
	EnableRemoval bool
	// EnableReplacement switches Theorem 4 degree-3 replacement.
	EnableReplacement bool
	// UseExtended applies Theorem 5 using free cached degree knowledge when
	// the source exposes it (osn.Client does); otherwise the test silently
	// degenerates to Theorem 3.
	UseExtended bool
	// Criterion selects the evaluation base for the removal test.
	Criterion CriterionBase
	// LazyProb is Algorithm 1's "rand(0,1) < 1/2" move probability per
	// inner iteration; the complement re-picks a neighbor (possibly after
	// more topology edits).
	LazyProb float64
	// ReplaceProb is the probability of performing the replacement when a
	// degree-3 pivot is encountered (Algorithm 1's "choose to replace").
	ReplaceProb float64
	// PivotOnce limits each pivot node to a single Theorem 4 replacement
	// (default true). Heavy-tailed social graphs are full of degree-3
	// users; without the bound the walk rewires forever, its stationary
	// distribution never settles, and the Geweke indicator (rightly)
	// refuses to fire. One replacement per pivot keeps total rewiring
	// O(|V|) so the chain is asymptotically stationary. The used-pivot set
	// lives on the overlay, so the bound holds across every sampler
	// sharing it (a fleet), not per member.
	PivotOnce bool
	// MaxInner caps inner re-pick iterations per Step as a safety valve.
	MaxInner int
	// DegreeFloor keeps every node's overlay degree at or above
	// ⌈DegreeFloor · original degree⌉ (at least 2): iterated removal would
	// otherwise drain dense pockets into bipartite trees whose SRW never
	// mixes. 0.3 keeps the barbell overlay at the paper's reported G*
	// density; 0 disables the floor (Algorithm 1 verbatim, which only
	// guards |N(u)| >= 1).
	DegreeFloor float64
	// Weights selects the importance-weight computation.
	Weights WeightMode
	// DegreeSample is the incident-edge sample size for WeightSampled.
	DegreeSample int
	// Prefetch issues non-blocking speculative fetch hints when the source
	// supports them (an osn.Client with a running prefetch pool behind the
	// overlay): on arrival the current node's overlay neighbors — the inner
	// loop's re-pick candidate set — and on meeting a degree-3 pivot the
	// pivot's neighbor list, i.e. the Theorem 4 replacement targets, so
	// stepping onto a redirected edge finds its round-trip already in
	// flight. Speculative responses stay invisible to the cost ledger and to
	// the Theorem 5 degree cache until a demand query consumes them, so
	// enabling this changes neither trajectories nor UniqueQueries — only
	// wall-clock.
	Prefetch bool
}

// DefaultConfig returns the paper's configuration: both operations on,
// extension on, lazy and replacement probabilities 1/2.
func DefaultConfig() Config {
	return Config{
		EnableRemoval:     true,
		EnableReplacement: true,
		UseExtended:       true,
		LazyProb:          0.5,
		ReplaceProb:       0.5,
		PivotOnce:         true,
		MaxInner:          64,
		Weights:           WeightOverlayDegree,
		DegreeSample:      5,
		DegreeFloor:       0.3,
	}
}

// RemovalOnlyConfig disables replacement (the paper's MTO_RM ablation).
func RemovalOnlyConfig() Config {
	c := DefaultConfig()
	c.EnableReplacement = false
	return c
}

// ReplacementOnlyConfig disables removal (the paper's MTO_RP ablation).
func ReplacementOnlyConfig() Config {
	c := DefaultConfig()
	c.EnableRemoval = false
	return c
}

// Stats counts the rewiring work a sampler has performed.
type Stats struct {
	Steps        int64 // completed Step calls
	Examined     int64 // edges examined against the removal criterion
	Removals     int64 // overlay edge removals
	Replacements int64 // overlay edge replacements
}

// Sampler is the MTO-Sampler of Algorithm 1: a simple random walk over the
// overlay that removes provably non-cross-cutting edges and performs
// conductance-safe replacements as it goes. It implements walk.Walker and
// walk.Weighter, so it plugs into the same estimation pipeline as the
// baselines.
type Sampler struct {
	cfg   Config
	ov    *Overlay
	cache DegreeCache // nil unless the source can answer degree questions for free
	// pf carries prefetch hints to the base client when Config.Prefetch is
	// set and the base supports them; nil otherwise.
	pf    walk.PrefetchSource
	cur   graph.NodeID
	rng   *rng.Rand
	stats Stats
	// verdicts caches negative Theorem 3 outcomes under EvalOriginal, where
	// the criterion is static (positive outcomes remove the edge, so they
	// never need caching). Unused when Theorem 5 can apply: its verdict
	// improves as the degree cache grows.
	verdicts map[graph.EdgeKey]struct{}
	// scratch is the reusable common-neighbor buffer behind removableEdge:
	// the criterion only reads the intersection, so one buffer per sampler
	// keeps the steady-state step allocation-free.
	scratch []graph.NodeID
}

// neighborCache is the optional source capability the Theorem 5 path needs:
// telling whether v is already in the local store. osn.Client provides it.
type neighborCache interface {
	Cached(v graph.NodeID) bool
}

// NewSampler starts an MTO walk at start over src, with a private overlay.
func NewSampler(src walk.Source, start graph.NodeID, cfg Config, r *rng.Rand) *Sampler {
	return NewSamplerOn(NewOverlay(src), start, cfg, r)
}

// NewSamplerOn starts an MTO walk at start over an existing overlay, so
// several samplers can share one rewired topology (the fleet configuration:
// every walker benefits from every other walker's removals and
// replacements). The sampler itself is single-goroutine state — run each
// sampler on its own goroutine and share only the overlay and its source.
func NewSamplerOn(ov *Overlay, start graph.NodeID, cfg Config, r *rng.Rand) *Sampler {
	if cfg.MaxInner <= 0 {
		cfg.MaxInner = 64
	}
	src := ov.Base()
	s := &Sampler{cfg: cfg, ov: ov, cur: start, rng: r}
	if cfg.Prefetch {
		if _, ok := src.(walk.PrefetchSource); ok {
			s.pf = ov
		}
	}
	if cfg.UseExtended {
		switch cfg.Criterion {
		case EvalOverlay:
			if _, ok := src.(neighborCache); ok {
				s.cache = overlayDegreeCache{s.ov}
			}
		default:
			// Original-graph evaluation wants original cached degrees; the
			// OSN client provides them directly.
			if dc, ok := src.(DegreeCache); ok {
				s.cache = dc
			}
		}
	}
	if cfg.Criterion == EvalOriginal && s.cache == nil {
		s.verdicts = make(map[graph.EdgeKey]struct{})
	}
	return s
}

// overlayDegreeCache answers Theorem 5's degree questions with *overlay*
// degrees, and only for nodes whose base neighborhood is already cached (so
// no query is ever spent). This is strictly more faithful than raw base
// degrees: the theorem's proof argues about the current graph.
type overlayDegreeCache struct{ ov *Overlay }

func (c overlayDegreeCache) CachedDegree(v graph.NodeID) (int, bool) {
	if lst, ok := c.ov.cachedList(v); ok {
		return len(lst), true
	}
	if nc, ok := c.ov.base.(neighborCache); ok && nc.Cached(v) {
		return len(c.ov.Neighbors(v)), true // materializes from cache, no query
	}
	return 0, false
}

// Current returns the walk position.
func (s *Sampler) Current() graph.NodeID { return s.cur }

// SetCurrent repositions the walk (between runs only).
func (s *Sampler) SetCurrent(v graph.NodeID) { s.cur = v }

// RandState captures the sampler's RNG stream for checkpointing. Together
// with the overlay delta (Overlay.Delta) it is the sampler's complete
// trajectory-determining state: the verdict cache and scratch buffer only
// memoize deterministic recomputation and never touch the stream.
func (s *Sampler) RandState() [4]uint64 { return s.rng.State() }

// SetRandState restores a stream captured with RandState.
func (s *Sampler) SetRandState(st [4]uint64) { s.rng.SetState(st) }

// Overlay exposes the evolving rewired topology.
func (s *Sampler) Overlay() *Overlay { return s.ov }

// Err reports the base source's sticky failure (cancellation, deadline,
// budget exhaustion) when the overlay's base tracks one — the walk.Failing
// capability a fleet uses to retire the sampler instead of spinning on
// absorbing nil reads.
func (s *Sampler) Err() error {
	if f, ok := s.ov.base.(walk.Failing); ok {
		return f.Err()
	}
	return nil
}

// Stats returns rewiring counters.
func (s *Sampler) Stats() Stats { return s.stats }

// Step runs one outer iteration of Algorithm 1: repeatedly pick a uniform
// overlay neighbor v of the current node; remove the edge if Theorem 3/5
// fires (and re-pick); optionally replace it around a degree-3 pivot
// (Theorem 4), redirecting the candidate; then move with probability
// LazyProb, else re-pick. A MaxInner safety valve forces a plain SRW move if
// the loop spins too long (e.g. ReplaceProb pathologies).
func (s *Sampler) Step() graph.NodeID {
	defer func() { s.stats.Steps++ }()
	for iter := 0; iter < s.cfg.MaxInner; iter++ {
		if s.ov.failed() {
			return s.cur // query path failed: hold position for a resume
		}
		nbrs := s.ov.Neighbors(s.cur)
		if len(nbrs) == 0 {
			return s.cur // isolated: absorbing, same as SRW
		}
		if iter == 0 && s.pf != nil {
			// Every inner iteration demands one of these neighborhoods; get
			// their round-trips in flight before the picks start, so re-picks
			// coalesce onto speculation instead of paying latency serially.
			s.pf.Prefetch(nbrs...)
		}
		v := rng.Choice(s.rng, nbrs)
		vn := s.ov.Neighbors(v) // the individual-user query for v
		s.stats.Examined++
		if s.cfg.EnableRemoval && s.removableEdge(s.cur, v, nbrs, vn) {
			// Theorem 3/5: (cur, v) is provably non-cross-cutting. The
			// criterion was judged on snapshots; the guarded commit
			// re-validates the walk-safety invariants (Algorithm 1's
			// |N(u)| >= 1, the degree floor, overlay connectivity) against
			// the *current* overlay under the lock, so a concurrent fleet
			// member acting on the same stale lists cannot strand a node.
			if s.ov.RemoveEdgeGuarded(s.cur, v, s.minKeep(s.cur), s.minKeep(v),
				s.cfg.Criterion == EvalOriginal) {
				s.stats.Removals++
			}
			continue
		}
		cand := v
		if s.cfg.EnableReplacement && ReplaceablePivot(len(vn)) {
			if s.pf != nil {
				// Theorem 4 pivot candidates: whichever neighbor of v the
				// replacement redirects to becomes the walk's next demand.
				s.pf.Prefetch(vn...)
			}
			if s.pivotAvailable(v) && s.rng.Bernoulli(s.cfg.ReplaceProb) {
				if w, ok := s.pickReplacement(nbrs, v, vn); ok &&
					s.ov.ReplaceEdgeGuarded(s.cur, v, w, s.cfg.PivotOnce) {
					s.stats.Replacements++
					cand = w // Algorithm 1's "v ← v′"
				}
			}
		}
		if s.rng.Bernoulli(s.cfg.LazyProb) {
			s.cur = cand
			return s.cur
		}
	}
	if nbrs := s.ov.Neighbors(s.cur); len(nbrs) > 0 {
		s.cur = rng.Choice(s.rng, nbrs)
	}
	return s.cur
}

// removableEdge applies the removal criterion to the edge (u, v), where
// uOv and vOv are the endpoints' current overlay neighbor lists. Guards
// (both overlay degrees >= 2; under EvalOriginal additionally >= 1 common
// overlay neighbor) ensure a removal never strands a node or disconnects
// the overlay.
func (s *Sampler) removableEdge(u, v graph.NodeID, uOv, vOv []graph.NodeID) bool {
	if len(uOv) <= 1 || len(vOv) <= 1 {
		return false
	}
	// Theorems 3/5 certify edges of the *original* graph. Overlay additions
	// came from Theorem 4 replacements precisely because they are likely
	// cross-cutting; removing them again would silently undo the rewiring
	// (and, iterated with replacement, grind the overlay down to a tree).
	if s.ov.IsAdded(u, v) {
		return false
	}
	// Each endpoint's base list is read at most once per examined edge: the
	// degree floor and the EvalOriginal criterion share it. Both reads are
	// cache hits, since the walk already paid for u and v.
	var ub, vb []graph.NodeID
	if s.cfg.DegreeFloor > 0 {
		ub = s.ov.base.Neighbors(u)
		if len(uOv) <= s.floorFor(len(ub)) {
			return false
		}
		vb = s.ov.base.Neighbors(v)
		if len(vOv) <= s.floorFor(len(vb)) {
			return false
		}
	}
	if s.cfg.Criterion == EvalOverlay {
		if !degreesCanFire(len(uOv), len(vOv)) {
			return false
		}
		s.scratch = graph.IntersectSortedInto(s.scratch, uOv, vOv)
		return Removable(s.scratch, len(uOv), len(vOv), s.cache)
	}
	// EvalOriginal: static criterion on the neighborhoods the queries
	// returned; connectivity guard on the overlay.
	if !graph.IntersectsSorted(uOv, vOv) {
		return false
	}
	if s.cfg.DegreeFloor <= 0 {
		ub = s.ov.base.Neighbors(u)
		vb = s.ov.base.Neighbors(v)
	}
	if !degreesCanFire(len(ub), len(vb)) {
		return false
	}
	k := graph.KeyOf(u, v)
	if s.verdicts != nil {
		if _, known := s.verdicts[k]; known {
			return false // cached negative
		}
	}
	s.scratch = graph.IntersectSortedInto(s.scratch, ub, vb)
	fires := Removable(s.scratch, len(ub), len(vb), s.cache)
	if !fires && s.verdicts != nil {
		s.verdicts[k] = struct{}{}
	}
	return fires
}

// pivotAvailable reports whether v may still host a replacement. The used
// set lives on the (possibly shared) overlay, so under PivotOnce the bound
// is one replacement per pivot for the whole fleet, not per member; this is
// only a cheap pre-check — the authoritative claim happens atomically
// inside ReplaceEdgeGuarded.
func (s *Sampler) pivotAvailable(v graph.NodeID) bool {
	return !s.cfg.PivotOnce || !s.ov.PivotUsed(v)
}

// minKeep returns the overlay degree a node must retain after a removal:
// the configured degree floor when one is set, else Algorithm 1's bare
// |N(u)| >= 1.
func (s *Sampler) minKeep(u graph.NodeID) int {
	if s.cfg.DegreeFloor > 0 {
		// Base neighborhoods are cached for every node the walk touches, so
		// this never issues a query.
		return s.floorFor(len(s.ov.base.Neighbors(u)))
	}
	return 1
}

// floorFor returns the minimum overlay degree a node of base degree k must
// keep: max(2, ⌈DegreeFloor · k⌉).
func (s *Sampler) floorFor(k int) int {
	return max(2, int(s.cfg.DegreeFloor*float64(k)+0.999999))
}

// pickReplacement chooses w for the Theorem 4 replacement of (cur, v)
// around pivot v: w is a uniformly chosen other neighbor of v such that
// (cur, w) does not already exist (a no-op "replacement" would just delete
// (cur, v), which Theorem 4 does not license).
func (s *Sampler) pickReplacement(curNbrs []graph.NodeID, v graph.NodeID, vNbrs []graph.NodeID) (graph.NodeID, bool) {
	options := make([]graph.NodeID, 0, 2)
	for _, w := range vNbrs {
		if w != s.cur && !graph.ContainsSorted(curNbrs, w) {
			options = append(options, w)
		}
	}
	if len(options) == 0 {
		return 0, false
	}
	return rng.Choice(s.rng, options), true
}

// StationaryWeight returns k*(v) per the configured WeightMode — the
// importance weight denominator for unbiasing MTO samples.
func (s *Sampler) StationaryWeight(v graph.NodeID) float64 {
	switch s.cfg.Weights {
	case WeightExact:
		return float64(s.classifyIncident(v, -1))
	case WeightSampled:
		return float64(s.classifyIncident(v, s.cfg.DegreeSample))
	default:
		return float64(s.ov.Degree(v))
	}
}

// classifyIncident tests (a sample of) v's incident overlay edges against
// the removal criterion, removes the ones that fire, and returns the
// resulting degree estimate. sample < 0 classifies all incident edges
// (exact); otherwise `sample` random neighbors are tested and the removable
// fraction is extrapolated.
func (s *Sampler) classifyIncident(v graph.NodeID, sample int) int {
	nbrs := s.ov.Neighbors(v)
	deg := len(nbrs)
	if deg <= 1 || !s.cfg.EnableRemoval {
		return deg
	}
	idx := make([]int, deg)
	for i := range idx {
		idx[i] = i
	}
	tested := deg
	if sample >= 0 && sample < deg {
		s.rng.Shuffle(deg, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		tested = sample
		if tested == 0 {
			return deg
		}
	}
	removed := 0
	for _, i := range idx[:tested] {
		w := nbrs[i]
		wn := s.ov.Neighbors(w)
		s.stats.Examined++
		if s.removableEdge(v, w, nbrs, wn) &&
			s.ov.RemoveEdgeGuarded(v, w, s.minKeep(v), s.minKeep(w),
				s.cfg.Criterion == EvalOriginal) {
			removed++
			s.stats.Removals++
		}
	}
	if tested == deg {
		return deg - removed
	}
	frac := float64(removed) / float64(tested)
	est := int(float64(deg)*(1-frac) + 0.5)
	if est < 1 {
		est = 1
	}
	return est
}

// WalkToCoverage advances the sampler until every node of an n-node graph
// has been visited at least once (the paper's §V-A.3 procedure for
// extracting the full overlay topology) or maxSteps elapse. It returns the
// number of distinct nodes visited and whether full coverage was reached.
func WalkToCoverage(s *Sampler, n, maxSteps int) (visited int, ok bool) {
	seen := make([]bool, n)
	seen[s.Current()] = true
	visited = 1
	for step := 0; step < maxSteps && visited < n; step++ {
		v := s.Step()
		if !seen[v] {
			seen[v] = true
			visited++
		}
	}
	return visited, visited == n
}

// Interface conformance checks.
var (
	_ walk.Walker         = (*Sampler)(nil)
	_ walk.Weighter       = (*Sampler)(nil)
	_ walk.StateCarrier   = (*Sampler)(nil)
	_ walk.Source         = (*Overlay)(nil)
	_ walk.PrefetchSource = (*Overlay)(nil)
)
