package walk

import (
	"math"

	"rewire/internal/graph"
)

// PrefetchSource is a Source whose local cache can be warmed asynchronously:
// Prefetch enqueues non-blocking speculative fetch hints (a bet, never an
// obligation — implementations may drop hints freely), and Known reports
// whether a hint for v would be redundant because v is already cached or in
// flight. osn.Client implements it when its prefetch pool is running, and
// core.Overlay forwards it to its base.
type PrefetchSource interface {
	Source
	// Prefetch enqueues speculative fetches for ids and returns how many
	// hints were accepted. It must never block on a provider round-trip,
	// and it does not retain ids: strategies hint from buffers they reuse.
	Prefetch(ids ...graph.NodeID) int
	// Known reports whether v is already cached or in flight.
	Known(v graph.NodeID) bool
}

// CachedSource exposes free reads of already-paid-for topology — the same
// "historical information without query cost" the Theorem 5 criterion uses.
// Prefetch strategies use it to look at the walk frontier without spending
// queries. osn.Client implements it.
type CachedSource interface {
	// CachedNeighbors returns v's neighbor list if demand-cached (shared
	// slice, do not modify), without issuing a query.
	CachedNeighbors(v graph.NodeID) ([]graph.NodeID, bool)
	// CachedDegree returns v's degree if demand-cached, without a query.
	CachedDegree(v graph.NodeID) (int, bool)
	// LowDegreeCount returns how many demand-cached users have degree 2 or
	// 3. It never decreases, and an unchanged count means an unchanged set
	// of such users — what lets the removal criterion skip and memoize its
	// Theorem 5 work exactly.
	LowDegreeCount() int64
}

// Prefetcher decides which speculative queries to issue as a walk advances.
// Implementations are per-walker, single-goroutine state: a fleet builds one
// strategy instance per member (see Fleet.Prefetched). Since speculative
// responses stay invisible to the cost ledger until demanded, no strategy
// can change a walk's trajectory or unique-query bill — only its wall-clock.
type Prefetcher interface {
	// Landed is called after each Step with the node the walker stepped from
	// and the node it landed on. It may issue non-blocking prefetch hints.
	Landed(from, to graph.NodeID)
}

// NextHop is depth-1 lookahead: hint the node the walk just landed on, whose
// neighbor list the very next Step must demand. On its own this overlaps
// only the time between steps; combined with a recursive pool depth
// (osn.PrefetchConfig.Depth) the pool keeps expanding ahead of the walk.
type NextHop struct {
	src  PrefetchSource
	hint [1]graph.NodeID // Prefetch's argument, owned so a step allocates nothing
}

// NewNextHop builds the strategy over src.
func NewNextHop(src PrefetchSource) *NextHop { return &NextHop{src: src} }

// Landed hints the landing node.
func (p *NextHop) Landed(from, to graph.NodeID) {
	p.hint[0] = to
	p.src.Prefetch(p.hint[:]...)
}

// frontierWidth is how many cold frontier nodes Frontier hints per step.
const frontierWidth = 8

// Frontier is the frontier-top-k strategy: besides the landing node, it
// hints up to frontierWidth cold frontier nodes ranked by cache-visible
// degree — the
// number of already-demanded neighbor lists a cold node appears in. Under an
// SRW that count is proportional to the probability mass flowing into the
// node from explored territory, so high scorers are the cold nodes the walk
// is most likely to demand soon. Social-graph clustering is what makes this
// pay: a node hinted from u's list is typically reached several steps later,
// by which time its round-trip has already completed.
type Frontier struct {
	src    PrefetchSource
	cached CachedSource // nil degrades the strategy to NextHop behavior
	// landed and best are Prefetch's arguments: the landing node, then the
	// ranked frontier. Owned, so a step allocates nothing.
	landed [1]graph.NodeID
	best   [frontierWidth]graph.NodeID
	// scanned marks nodes whose demanded neighbor list was already folded
	// into the scores, so each list is counted once.
	scanned map[graph.NodeID]struct{}
	// score is the cache-visible degree of cold frontier nodes. Entries are
	// pruned once the node stops being cold.
	score map[graph.NodeID]int
}

// NewFrontier builds the strategy over src. Ranking needs free topology
// reads, so src should also implement CachedSource (osn.Client does);
// without it the strategy degrades to next-hop hints.
func NewFrontier(src PrefetchSource) *Frontier {
	cached, _ := src.(CachedSource)
	return &Frontier{
		src:     src,
		cached:  cached,
		scanned: make(map[graph.NodeID]struct{}),
		score:   make(map[graph.NodeID]int),
	}
}

// frontierCap bounds the score map, so one Landed call costs O(cap)
// regardless of how much territory the walk has seen. Ranking a speculative
// hint heuristic does not justify unbounded state or a per-step sort.
const frontierCap = 64 * frontierWidth

// Landed folds the newly demanded neighbor lists into the frontier scores,
// then hints the landing node plus the top frontierWidth cold frontier
// nodes.
func (p *Frontier) Landed(from, to graph.NodeID) {
	p.scan(from)
	p.scan(to)
	p.landed[0] = to
	p.src.Prefetch(p.landed[:]...)
	if len(p.score) == 0 {
		return
	}
	// One pass over the (bounded) score map: prune entries that are no
	// longer cold, and keep the best by linear top-k insertion — the width
	// is small, so this is O(|score|·width) with no sort.
	best := p.best[:0]
	for v := range p.score {
		if p.src.Known(v) {
			delete(p.score, v)
			continue
		}
		best = insertTopK(best, v, p.score)
	}
	p.src.Prefetch(best...)
	for _, v := range best {
		delete(p.score, v) // hinted: in flight now, no longer cold
	}
	p.shed()
}

// shed keeps the score map within frontierCap by deleting the lowest scores
// first. Their lists were already scanned, so a shed node only returns via
// a fresh list — an acceptable loss of hint quality for bounded per-step
// cost. In a heavy-tailed graph nearly every entry scores 1, so one round
// usually suffices.
func (p *Frontier) shed() {
	for len(p.score) > frontierCap {
		low := math.MaxInt
		for _, s := range p.score {
			low = min(low, s)
		}
		for v, s := range p.score {
			if s == low {
				delete(p.score, v)
				if len(p.score) <= frontierCap {
					return
				}
			}
		}
	}
}

// insertTopK inserts v into best (descending score, ties by ascending id),
// keeping at most cap(best) entries.
func insertTopK(best []graph.NodeID, v graph.NodeID, score map[graph.NodeID]int) []graph.NodeID {
	k := cap(best)
	i := len(best)
	for i > 0 {
		u := best[i-1]
		if score[u] > score[v] || (score[u] == score[v] && u < v) {
			break
		}
		i--
	}
	if i >= k {
		return best
	}
	if len(best) < k {
		best = append(best, 0)
	}
	copy(best[i+1:], best[i:])
	best[i] = v
	return best
}

// scan folds v's demanded neighbor list into the frontier scores (once).
func (p *Frontier) scan(v graph.NodeID) {
	if p.cached == nil {
		return
	}
	if _, done := p.scanned[v]; done {
		return
	}
	nbrs, ok := p.cached.CachedNeighbors(v)
	if !ok {
		return
	}
	p.scanned[v] = struct{}{}
	for _, w := range nbrs {
		if !p.src.Known(w) {
			p.score[w]++
		}
	}
}

// Prefetched wraps a Walker so that every Step issues prefetch hints through
// a strategy. It overrides only Step: weights, failures and chain state are
// the embedded walker's, so wrapping never changes estimation or
// checkpointing.
type Prefetched struct {
	Walker
	strategy Prefetcher
}

// WithPrefetch wraps w with strategy p.
func WithPrefetch(w Walker, p Prefetcher) *Prefetched {
	return &Prefetched{Walker: w, strategy: p}
}

// Step advances the inner walker, then lets the strategy hint.
func (w *Prefetched) Step() graph.NodeID {
	from := w.Current()
	to := w.Walker.Step()
	w.strategy.Landed(from, to)
	return to
}

// Prefetched returns a new Fleet whose members issue prefetch hints through
// strategies built by mk — one instance per member, because strategies are
// single-goroutine state. The members themselves are shared with the
// receiver, so use either fleet, not both.
func (f *Fleet) Prefetched(mk func() Prefetcher) *Fleet {
	wrapped := make([]Walker, len(f.members))
	for i, m := range f.members {
		wrapped[i] = WithPrefetch(m, mk())
	}
	return NewFleet(wrapped...)
}

var (
	_ Walker     = (*Prefetched)(nil)
	_ Prefetcher = (*NextHop)(nil)
	_ Prefetcher = (*Frontier)(nil)
)
