package walk

import (
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
// degree — the number of already-demanded neighbor lists a cold node
// appears in. Under an SRW that count is proportional to the probability
// mass flowing into the node from explored territory, so high scorers are
// the cold nodes the walk is most likely to demand soon. Social-graph
// clustering is what makes this pay: a node hinted from u's list is
// typically reached several steps later, by which time its round-trip has
// already completed.
//
// The frontier is admission-capped: a neighbor already in it scores one
// more, and a cold newcomer enters at score 1 only while the frontier holds
// fewer than frontierCap entries. A full frontier refuses newcomers until
// pruning and hinting free room, so it never holds more than frontierCap.
type Frontier struct {
	src    PrefetchSource
	cached CachedSource // nil degrades the strategy to NextHop behavior
	// landed and best are Prefetch's arguments: the landing node, then the
	// ranked frontier; top ranks the frontier. All owned, so a step
	// allocates nothing.
	landed [1]graph.NodeID
	best   [frontierWidth]graph.NodeID
	top    [frontierWidth]frontierEntry
	// scanned marks nodes whose demanded neighbor list was already folded
	// into the scores, so each list is counted once.
	scanned map[graph.NodeID]struct{}
	// entries holds the cold frontier nodes with their cache-visible degree,
	// densely, so ranking reads scores without map lookups; index maps a node
	// to its position. Entries are removed (by swap with the last) once the
	// node stops being cold.
	entries []frontierEntry
	index   map[graph.NodeID]int
}

// frontierEntry is one cold frontier node and its score.
type frontierEntry struct {
	id    graph.NodeID
	score int
}

// outranks orders hints: higher score first, ties by ascending id.
func (e frontierEntry) outranks(f frontierEntry) bool {
	return e.score > f.score || (e.score == f.score && e.id < f.id)
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
		index:   make(map[graph.NodeID]int, frontierCap),
	}
}

// frontierCap bounds the frontier by admission, so one Landed call costs
// one index lookup per neighbor of each newly scanned list, plus one Known
// call per entrant and per entry ranked — O(degree + cap) whatever the walk
// has seen. Ranking a speculative hint heuristic does not justify unbounded
// state or a per-step sort.
const frontierCap = 64 * frontierWidth

// Landed folds the newly demanded neighbor lists into the frontier scores,
// then hints the landing node plus the top frontierWidth cold frontier
// nodes.
func (p *Frontier) Landed(from, to graph.NodeID) {
	p.scan(from)
	p.scan(to)
	p.landed[0] = to
	p.src.Prefetch(p.landed[:]...)
	if len(p.entries) == 0 {
		return
	}
	// One pass over the (bounded) frontier: prune entries that are no
	// longer cold, and keep the best by linear top-k insertion — the width
	// is small, so this is O(|entries|·width) with no sort.
	top := p.top[:0]
	for i := 0; i < len(p.entries); {
		e := p.entries[i]
		if p.src.Known(e.id) {
			p.remove(i)
			continue
		}
		top = insertTopK(top, e)
		i++
	}
	best := p.best[:len(top)]
	for i, e := range top {
		best[i] = e.id
	}
	p.src.Prefetch(best...)
	for _, v := range best {
		p.remove(p.index[v]) // hinted: in flight now, no longer cold
	}
}

// remove deletes entries[i] by moving the last entry into its place.
func (p *Frontier) remove(i int) {
	last := len(p.entries) - 1
	delete(p.index, p.entries[i].id)
	if i != last {
		p.entries[i] = p.entries[last]
		p.index[p.entries[i].id] = i
	}
	p.entries = p.entries[:last]
}

// insertTopK inserts e into top (in outranks order), keeping at most
// cap(top) entries.
func insertTopK(top []frontierEntry, e frontierEntry) []frontierEntry {
	k := cap(top)
	i := len(top)
	for i > 0 && e.outranks(top[i-1]) {
		i--
	}
	if i >= k {
		return top
	}
	if len(top) < k {
		top = append(top, frontierEntry{})
	}
	copy(top[i+1:], top[i:])
	top[i] = e
	return top
}

// scan folds v's demanded neighbor list into the frontier scores (once): a
// neighbor in the frontier scores one more, and a cold one outside it is
// admitted at score 1 while there is room. An entry that has stopped being
// cold may still score here; Landed prunes it before ranking.
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
		if i, ok := p.index[w]; ok {
			p.entries[i].score++
			continue
		}
		if len(p.entries) >= frontierCap || p.src.Known(w) {
			continue
		}
		p.index[w] = len(p.entries)
		p.entries = append(p.entries, frontierEntry{id: w, score: 1})
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

// Leave forwards a retiring member's leave to the inner walker.
func (w *Prefetched) Leave() {
	if l, ok := w.Walker.(Leaver); ok {
		l.Leave()
	}
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
