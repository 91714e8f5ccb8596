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
	// G*" suggestion. Sample size is degreeSample.
	WeightSampled
)

// Algorithm 1's fixed settings. No caller varies them, so they are constants
// rather than Config fields; a probe of other values edits them here.
const (
	// replaceProb is Algorithm 1's "choose to replace" coin at a degree-3
	// pivot: a fair coin.
	replaceProb = 0.5
	// maxInner caps inner re-pick iterations per Step as a safety valve,
	// after which the step falls back to a plain SRW move. Only picks the
	// criterion fires on re-pick, so the cap bounds a run of removals; a step
	// ends at its first pick the criterion does not fire on.
	maxInner = 64
	// degreeFloor keeps every node's overlay degree at or above
	// ⌈degreeFloor · original degree⌉ (at least 2): iterated removal would
	// otherwise drain dense pockets into bipartite trees whose SRW never
	// mixes (Algorithm 1 verbatim only guards |N(u)| >= 1). 0.3 keeps the
	// barbell overlay at the paper's reported G* density.
	degreeFloor = 0.3
	// degreeSample is WeightSampled's incident-edge sample size: the paper's
	// §IV-A estimates k* from a small random sample of neighbors, and each
	// sampled edge may cost a query, so 5 bounds the weight's cost per
	// sample. The value is not tuned.
	degreeSample = 5
)

// Config tunes the MTO-Sampler. The zero value is NOT valid; use
// DefaultConfig and adjust.
//
// One replacement per pivot is not configurable either: heavy-tailed social
// graphs are full of degree-3 users, and without the bound the walk rewires
// forever, its stationary distribution never settles, and the Geweke
// indicator (rightly) refuses to fire. One replacement per pivot keeps total
// rewiring O(|V|), so the chain is asymptotically stationary. The used-pivot
// set lives on the overlay, so the bound holds across every sampler sharing
// it (a fleet), not per member.
type Config struct {
	// EnableRemoval switches Theorem 3/5 edge removal.
	EnableRemoval bool
	// EnableReplacement switches Theorem 4 degree-3 replacement.
	EnableReplacement bool
	// UseExtended applies Theorem 5 using free cached degree knowledge when
	// the source exposes it as a walk.CachedSource (osn.Client and walk.Bound
	// do); otherwise the test silently degenerates to Theorem 3.
	UseExtended bool
	// Weights selects the importance-weight computation.
	Weights WeightMode
	// Prefetch issues non-blocking speculative fetch hints when the source
	// supports them (an osn.Client with a running prefetch pool behind the
	// overlay): on arrival the current node's overlay neighbors — the pick
	// candidates, re-picked only after a removal — and on meeting a degree-3
	// pivot the pivot's neighbor list, i.e. the Theorem 4 replacement
	// targets, so stepping onto a redirected edge finds its round-trip
	// already in flight. Speculative responses stay invisible to the cost
	// ledger and to the Theorem 5 degree cache until a demand query consumes
	// them, so enabling this changes neither trajectories nor UniqueQueries —
	// only wall-clock.
	Prefetch bool
}

// DefaultConfig returns the paper's configuration: both operations on and
// the Theorem 5 extension on.
func DefaultConfig() Config {
	return Config{
		EnableRemoval:     true,
		EnableReplacement: true,
		UseExtended:       true,
		Weights:           WeightOverlayDegree,
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
	// T5Only counts the removals Theorem 3 alone would not have licensed:
	// the ones only the Theorem 5 extension's cached degrees made possible.
	T5Only int64
}

// Sampler is the MTO-Sampler of Algorithm 1: a simple random walk over the
// overlay that removes provably non-cross-cutting edges and performs
// conductance-safe replacements as it goes. It implements walk.Walker, so it
// plugs into the same fleets, estimation pipeline and checkpoints as the
// baselines.
type Sampler struct {
	cfg Config
	ov  *Overlay
	// cache answers degree questions for free, and its LowDegreeCount
	// versions what Theorem 5 can learn from it; nil without UseExtended or a
	// caching source, which the criterion treats as a count of 0.
	cache walk.CachedSource
	// pf carries prefetch hints to the base client when Config.Prefetch is
	// set and the base supports them; nil otherwise.
	pf    walk.PrefetchSource
	cur   graph.NodeID
	rng   *rng.Rand
	stats Stats
	// verdicts memoizes negative criterion outcomes by edge, each with the
	// cache's LowDegreeCount when it was judged (positive outcomes remove the
	// edge, so they never need memoizing). The criterion reads original
	// lists, which never change, and Theorem 5 reads cached degrees 2 and 3,
	// whose set is unchanged while the count is: a verdict stored at the
	// current count is the verdict a re-evaluation would reach.
	verdicts map[graph.EdgeKey]int64
	// scratch is the reusable common-neighbor buffer behind removableEdge:
	// the criterion only reads the intersection, so one buffer per sampler
	// keeps the steady-state step allocation-free.
	scratch []graph.NodeID
	// idx is classifyIncident's reusable index permutation, kept for the
	// same reason.
	idx []int
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
	src := ov.Base()
	s := &Sampler{cfg: cfg, ov: ov, cur: start, rng: r, verdicts: make(map[graph.EdgeKey]int64)}
	if cfg.Prefetch {
		if _, ok := src.(walk.PrefetchSource); ok {
			s.pf = ov
		}
	}
	if cfg.UseExtended {
		// The criterion reads original lists, so Theorem 5 wants original
		// cached degrees; the OSN client provides them directly.
		s.cache, _ = src.(walk.CachedSource)
	}
	return s
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

// Err reports the overlay base's sticky failure (cancellation, deadline,
// budget exhaustion), which a fleet uses to retire the sampler instead of
// spinning on absorbing nil reads.
func (s *Sampler) Err() error { return s.ov.Err() }

// Stats returns rewiring counters.
func (s *Sampler) Stats() Stats { return s.stats }

// Step runs one outer iteration of Algorithm 1: repeatedly pick a uniform
// overlay neighbor v of the current node; remove the edge if Theorem 3/5
// fires (and re-pick); optionally replace it around a degree-3 pivot
// (Theorem 4), redirecting the candidate; then move. After maxInner
// iterations the step forces a plain SRW move. Algorithm 1 also flips a 1/2
// move coin per surviving pick and re-picks on tails, throwing a paid query
// away; the coin is independent of the pick, so for a fixed overlay the move
// is uniform over the surviving edges without it.
func (s *Sampler) Step() graph.NodeID {
	defer func() { s.stats.Steps++ }()
	for iter := 0; iter < maxInner; iter++ {
		if s.ov.Err() != nil {
			return s.cur // query path failed: hold position for a resume
		}
		nbrs := s.ov.Neighbors(s.cur)
		if len(nbrs) == 0 {
			return s.cur // isolated: absorbing, same as SRW
		}
		if iter == 0 && s.pf != nil {
			// Every pick demands one of these neighborhoods; get their
			// round-trips in flight before the picks start, so the re-picks
			// that follow removals coalesce onto speculation instead of paying
			// latency serially.
			s.pf.Prefetch(nbrs...)
		}
		v := rng.Choice(s.rng, nbrs)
		vn := s.ov.Neighbors(v) // the individual-user query for v
		s.stats.Examined++
		if s.cfg.EnableRemoval {
			if fired, _ := s.tryRemove(s.cur, v, nbrs, vn); fired {
				continue // Theorem 3/5: (cur, v) is provably non-cross-cutting
			}
		}
		cand := v
		if s.cfg.EnableReplacement && ReplaceablePivot(len(vn)) {
			if s.pf != nil {
				// Theorem 4 pivot candidates: whichever neighbor of v the
				// replacement redirects to becomes the walk's next demand.
				s.pf.Prefetch(vn...)
			}
			// The used-pivot set is only pre-checked here; the authoritative
			// claim happens atomically inside ReplaceEdgeGuarded.
			if !s.ov.PivotUsed(v) && s.rng.Bernoulli(replaceProb) {
				if w, ok := s.pickReplacement(nbrs, v, vn); ok &&
					s.ov.ReplaceEdgeGuarded(s.cur, v, w) {
					s.stats.Replacements++
					cand = w // Algorithm 1's "v ← v′"
				}
			}
		}
		s.cur = cand
		return s.cur
	}
	if nbrs := s.ov.Neighbors(s.cur); len(nbrs) > 0 {
		s.cur = rng.Choice(s.rng, nbrs)
	}
	return s.cur
}

// tryRemove judges the edge (u, v) with removableEdge and, when it fires,
// commits the removal. It reports whether the criterion fired and whether
// the commit held; Step re-picks on either outcome. The criterion was judged on
// snapshots; the guarded commit re-validates the walk-safety invariants (the
// degree floor, overlay connectivity) against the *current* overlay under the
// lock, so a concurrent fleet member acting on the same stale lists cannot
// strand a node.
func (s *Sampler) tryRemove(u, v graph.NodeID, uOv, vOv []graph.NodeID) (fires, removed bool) {
	fires, t5Only := s.removableEdge(u, v, uOv, vOv)
	if !fires || !s.ov.RemoveEdgeGuarded(u, v, s.minKeep(u), s.minKeep(v)) {
		return fires, false
	}
	s.stats.Removals++
	if t5Only {
		s.stats.T5Only++
	}
	return true, true
}

// removableEdge applies the removal criterion to the edge (u, v), where
// uOv and vOv are the endpoints' current overlay neighbor lists, and reports
// whether it fires and whether only Theorem 5 licensed it. The criterion
// reads the neighborhoods the queries returned; the guards read the overlay:
// both endpoints stay above the degree floor and share at least one common
// overlay neighbor, so a removal never strands a node or disconnects the
// overlay.
func (s *Sampler) removableEdge(u, v graph.NodeID, uOv, vOv []graph.NodeID) (fires, t5Only bool) {
	// The criterion reads the original (base) lists, as BuildOverlay's
	// EvalOriginal does: that reproduces the paper's magnitudes (on the
	// barbell running example Φ* ≈ 0.05–0.07, the paper reports 0.053, where
	// testing current overlay neighborhoods stalls at ≈ 0.022), and lists
	// that never change are what keep negative verdicts memoizable. Each
	// endpoint's base list is read once per examined edge: the base-edge
	// test, the degree floor and the criterion share it. Both reads are cache
	// hits, since the walk already paid for u and v.
	ub := s.ov.base.Neighbors(u)
	// Theorems 3/5 certify edges of the *original* graph. Overlay additions
	// came from Theorem 4 replacements precisely because they are likely
	// cross-cutting; removing them again would silently undo the rewiring
	// (and, iterated with replacement, grind the overlay down to a tree).
	// v is on u's overlay list and the overlay records an addition only
	// where the base lacks the edge, so "not in ub" is exactly "added".
	if !graph.ContainsSorted(ub, v) || len(uOv) <= floorFor(len(ub)) {
		return false, false
	}
	vb := s.ov.base.Neighbors(v)
	if len(vOv) <= floorFor(len(vb)) {
		return false, false
	}
	// The count is read once, after the endpoint lists and before any
	// degree read, so the verdict below is at least as informed as count
	// low: every one of those cached degree-2/3 users is visible.
	var low int64
	if s.cache != nil {
		low = s.cache.LowDegreeCount()
	}
	// Degree gates, before any list merge. At count 0 the verdict is
	// Theorem 3's, which is nondecreasing in the common count and sees at
	// most min(ku, kv) common neighbors, so failing at that bound is final.
	ku, kv := len(ub), len(vb)
	if !degreesCanFire(ku, kv) || (low == 0 && !RemovableTheorem3(min(ku, kv), ku, kv)) {
		return false, false
	}
	if !graph.IntersectsSorted(uOv, vOv) {
		return false, false
	}
	k := graph.KeyOf(u, v)
	if at, known := s.verdicts[k]; known && at == low {
		return false, false // judged negative against the same knowledge
	}
	// At count 0 no cached user has degree 2 or 3, so Theorem 5 is Theorem 3
	// and the criterion reads no cached degree.
	var dc DegreeCache
	if low > 0 {
		dc = s.cache
	}
	s.scratch = graph.IntersectSortedInto(s.scratch, ub, vb)
	fires = Removable(s.scratch, ku, kv, dc)
	t5Only = fires && !RemovableTheorem3(len(s.scratch), ku, kv)
	if !fires {
		s.verdicts[k] = low
	}
	return fires, t5Only
}

// minKeep returns the overlay degree u must retain after a removal. Base
// neighborhoods are cached for every node the walk touches, so this never
// issues a query.
func (s *Sampler) minKeep(u graph.NodeID) int {
	return floorFor(len(s.ov.base.Neighbors(u)))
}

// floorFor returns the minimum overlay degree a node of base degree k must
// keep: max(2, ⌈degreeFloor · k⌉).
func floorFor(k int) int {
	return max(2, int(degreeFloor*float64(k)+0.999999))
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
		return float64(s.classifyIncident(v, degreeSample))
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
	if cap(s.idx) < deg {
		s.idx = make([]int, deg)
	}
	idx := s.idx[:deg]
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
		if _, ok := s.tryRemove(v, w, nbrs, wn); ok {
			removed++
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
	_ walk.Source         = (*Overlay)(nil)
	_ walk.PrefetchSource = (*Overlay)(nil)
)
