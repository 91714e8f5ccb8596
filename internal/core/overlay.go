package core

import (
	"slices"
	"sync"

	"rewire/internal/graph"
	"rewire/internal/store"
	"rewire/internal/walk"
)

// Overlay is the virtual rewired topology: the base graph (seen through a
// walk.Source, typically the caching OSN client) plus an edge delta of
// removals and additions. It implements walk.Source itself, so any walker
// can run "on the overlay" — which is exactly the paper's trick: the random
// walk follows the modified topology while only the original network exists.
//
// The overlay never mutates the base; it is the third party's bookkeeping.
//
// Overlay is safe for concurrent use. The delta has one record: per node,
// the partners of its removed and of its added edges, guarded by a single
// RWMutex (mu). Mutators hold it exclusively — a removal touches both
// endpoints' lists, which only a lock spanning both can make atomic — and
// list materialization holds it shared. Materialized lists are cached in a
// lock-free store.Table, so the hot path, re-reading an already-materialized
// list, is one atomic load and never blocks on mu. Lists and their slice
// headers are carved from slab arenas (one allocation amortizes thousands)
// and are immutable snapshots with clipped capacity: invalidation replaces
// them rather than editing them in place, so holding one across a
// concurrent mutation is safe, and appending to one reallocates instead of
// corrupting the arena. A node with no delta has no list of its own: its
// overlay list aliases the base list (capacity clipped the same way), so
// only rewired nodes' lists take arena space. A base list may be a
// zero-copy view into a durable snapshot; the view lives exactly as long as
// the client's own cache entry for it, so aliasing it adds no lifetime.
type Overlay struct {
	base walk.Source
	// pf is the base's prefetch capability (nil when the base cannot warm
	// its cache asynchronously, e.g. a local *graph.Graph).
	pf walk.PrefetchSource
	// failer is the base's failure-reporting capability (a walk.Bound under
	// a cancellable session). When it reports an error, base reads are
	// returning truncated (nil) lists; the overlay must not let those poison
	// its materialized-list cache — a cancelled run may be resumed with a
	// fresh context, and the cache outlives the cancellation.
	failer walk.Failing

	// mu serializes mutations (and Materialize snapshots) against list
	// materialization: mutators hold it exclusively, materializing readers
	// hold it shared.
	mu sync.RWMutex
	// removedAdj and addedAdj are the delta: each removed (added) edge is
	// listed under both endpoints, as the other endpoint. Removals per node
	// are few next to its degree, so a linear scan of a partner list is the
	// membership test. Guarded by mu, as are the edge counts.
	removedAdj, addedAdj map[graph.NodeID][]graph.NodeID
	nRemoved, nAdded     int
	// lists caches materialized overlay neighbor lists, invalidated on
	// mutation of either endpoint. A hit never takes mu.
	lists store.Table[[]graph.NodeID]
	// arena backs the storage of lists that differ from the base, heads
	// every cached list's slice header, so a materialization allocates
	// nothing of its own.
	arena *store.Arena[graph.NodeID]
	heads *store.Arena[[]graph.NodeID]
	// usedPivots records nodes that already hosted a Theorem 4 replacement.
	// It lives on the overlay — not the sampler — so the one-replacement-
	// per-pivot bound holds across a whole fleet sharing this overlay,
	// keeping total rewiring O(|V|) regardless of k. Guarded by mu.
	usedPivots map[graph.NodeID]struct{}
}

// headSlab is the header arena's slab length: 96 KiB of slice headers. The
// steady-state allocation gate measures windows of walk steps that
// re-materialize the lists each rewiring invalidates, so a slab must outlast
// those windows; a 256-header slab did not.
const headSlab = 4096

// NewOverlay wraps base with an empty delta.
func NewOverlay(base walk.Source) *Overlay {
	pf, _ := base.(walk.PrefetchSource)
	failer, _ := base.(walk.Failing)
	return &Overlay{
		base:       base,
		pf:         pf,
		failer:     failer,
		removedAdj: make(map[graph.NodeID][]graph.NodeID),
		addedAdj:   make(map[graph.NodeID][]graph.NodeID),
		arena:      store.NewArena[graph.NodeID](0),
		heads:      store.NewArena[[]graph.NodeID](headSlab),
		usedPivots: make(map[graph.NodeID]struct{}),
	}
}

// Base returns the wrapped source.
func (o *Overlay) Base() walk.Source { return o.base }

// Neighbors returns v's overlay neighbor list (sorted; an immutable snapshot
// owned by the overlay — do not modify its elements). Reading it may cost a
// query on the underlying client for v's base list — the same query any walk
// positioned at v must pay anyway.
func (o *Overlay) Neighbors(v graph.NodeID) []graph.NodeID {
	if lst := o.lists.Load(v); lst != nil {
		return *lst
	}
	// Warm the base cache BEFORE taking the overlay lock: on a fresh node
	// the base read is the expensive part (a real provider round-trip
	// through the client), and holding the overlay lock across it would
	// serialize the whole fleet behind one walker's network wait. Base
	// lists are immutable per node, so the early fetch is safe; the
	// materialization below re-reads it as a cache hit.
	o.base.Neighbors(v)
	if o.Err() != nil {
		// The warm-up read was aborted (cancellation, deadline, budget):
		// return nil like an absorbing read, WITHOUT materializing — caching
		// a truncated list here would corrupt every later run over this
		// overlay.
		return nil
	}
	// Materialize under the shared lock: concurrent readers materialize
	// different (or even the same) nodes in parallel; mutators are excluded,
	// so the delta cannot change between the reads below and the cache
	// publish.
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.materializeLocked(v)
}

// Err reports the base source's sticky failure (only ever non-nil for
// failure-reporting bases, i.e. a walk.Bound whose run was cancelled or ran
// out of budget).
func (o *Overlay) Err() error {
	if o.failer == nil {
		return nil
	}
	return o.failer.Err()
}

// Degree returns v's overlay degree.
func (o *Overlay) Degree(v graph.NodeID) int { return len(o.Neighbors(v)) }

// HasEdge reports whether (u, v) exists in the overlay, reading u's overlay
// list.
func (o *Overlay) HasEdge(u, v graph.NodeID) bool {
	return graph.ContainsSorted(o.Neighbors(u), v)
}

// RemoveEdge deletes (u, v) from the overlay. Removing an edge that is not
// present is a no-op. Removing an added edge cancels the addition.
func (o *Overlay) RemoveEdge(u, v graph.NodeID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.removeEdgeLocked(u, v)
}

func (o *Overlay) removeEdgeLocked(u, v graph.NodeID) {
	if containsUnsorted(o.addedAdj[u], v) {
		unlink(o.addedAdj, u, v)
		o.nAdded--
	} else if graph.ContainsSorted(o.base.Neighbors(u), v) {
		if containsUnsorted(o.removedAdj[u], v) {
			return // already removed: a no-op
		}
		link(o.removedAdj, u, v)
		o.nRemoved++
	} else {
		// Neither an addition nor a base edge: a true no-op. Guarding here
		// keeps the removals a subset of the base edge set even when a fleet
		// member acts on a stale neighbor list (e.g. the added edge it saw
		// was cancelled concurrently), so RemovedCount and Materialize stay
		// exact.
		return
	}
	o.lists.Delete(u)
	o.lists.Delete(v)
}

// AddEdge inserts (u, v) into the overlay: any removal mark is cleared, and
// the edge is recorded as an addition only when the base graph does not
// already carry it (so re-adding a base edge or restoring a removed one
// leaves the delta clean). Self-loops are ignored.
func (o *Overlay) AddEdge(u, v graph.NodeID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.addEdgeLocked(u, v)
}

func (o *Overlay) addEdgeLocked(u, v graph.NodeID) {
	if u == v {
		return
	}
	if containsUnsorted(o.removedAdj[u], v) {
		unlink(o.removedAdj, u, v)
		o.nRemoved--
	}
	o.lists.Delete(u)
	o.lists.Delete(v)
	if graph.ContainsSorted(o.base.Neighbors(u), v) {
		return // present in the base; clearing the removal mark restored it
	}
	if !containsUnsorted(o.addedAdj[u], v) {
		link(o.addedAdj, u, v)
		o.nAdded++
	}
}

// link records the edge (u, v) in adj under both endpoints.
func link(adj map[graph.NodeID][]graph.NodeID, u, v graph.NodeID) {
	adj[u] = append(adj[u], v)
	adj[v] = append(adj[v], u)
}

// unlink drops the edge (u, v) from adj under both endpoints.
func unlink(adj map[graph.NodeID][]graph.NodeID, u, v graph.NodeID) {
	adj[u] = without(adj[u], v)
	adj[v] = without(adj[v], u)
}

// ReplaceEdge performs the Theorem 4 operation: remove (u, p), add (u, w),
// atomically with respect to concurrent readers.
func (o *Overlay) ReplaceEdge(u, p, w graph.NodeID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.removeEdgeLocked(u, p)
	o.addEdgeLocked(u, w)
}

// materializeLocked returns v's current overlay list, building it with mu
// held (shared by the read path, exclusive inside guarded mutations —
// either way the delta is frozen). Callers must only reach here for
// nodes whose base neighborhood is already cached by the client (the sampler
// guarantees that: it queries a node before judging its edges), so the base
// read never blocks on a provider round-trip while the lock is held.
func (o *Overlay) materializeLocked(v graph.NodeID) []graph.NodeID {
	if lst := o.lists.Load(v); lst != nil {
		return *lst
	}
	base := o.base.Neighbors(v)
	gone, extra := o.removedAdj[v], o.addedAdj[v]
	// Clip the snapshot's capacity: a caller that appends to it reallocates
	// instead of scribbling over the base's next row or the arena cells
	// reserved for this list.
	lst := base[:len(base):len(base)]
	if len(gone) > 0 || len(extra) > 0 {
		lst = o.arena.Alloc(len(base) + len(extra))
		for _, w := range base {
			if !containsUnsorted(gone, w) {
				lst = append(lst, w)
			}
		}
		if len(extra) > 0 {
			lst = append(lst, extra...)
			slices.Sort(lst)
		}
		lst = lst[:len(lst):len(lst)]
	}
	if o.Err() != nil {
		// The base read may have been truncated by a cancelled run: hand the
		// caller a best-effort list (errors fail toward no mutation in the
		// guarded commits) but do not cache it past the failure.
		return lst
	}
	head := &o.heads.Alloc(1)[:1][0]
	*head = lst
	o.lists.Store(v, head)
	return lst
}

// RemoveEdgeGuarded removes (u, v) only if, under the lock, the edge still
// exists and the removal respects the walk-safety guards re-validated
// against the *current* overlay: both endpoints keep degree above their
// minimum (minU/minV are lower bounds the post-removal degree must not go
// below, i.e. removal requires current degree > min), and the endpoints
// share at least one other overlay neighbor so the overlay cannot
// disconnect. Snapshot-based guards alone are not enough in a fleet: two
// walkers can both judge the same edge removable against the same stale
// lists; the second commit must re-check. Reports whether the edge was
// removed.
func (o *Overlay) RemoveEdgeGuarded(u, v graph.NodeID, minU, minV int) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if containsUnsorted(o.addedAdj[u], v) {
		// (u, v) is (now) a Theorem 4 addition — those are likely
		// cross-cutting and must never be removed by the criterion, even if
		// the caller judged a same-keyed base edge on a stale snapshot.
		return false
	}
	uLst := o.materializeLocked(u)
	if !graph.ContainsSorted(uLst, v) {
		return false // already gone (another walker won the race)
	}
	vLst := o.materializeLocked(v)
	if len(uLst) <= minU || len(vLst) <= minV || !graph.IntersectsSorted(uLst, vLst) {
		return false
	}
	o.removeEdgeLocked(u, v)
	return true
}

// ReplaceEdgeGuarded performs the Theorem 4 replacement remove (u, p) /
// add (u, w) only if, under the lock, it is still valid on the current
// overlay: p has not hosted a replacement before, (u, p) exists, (u, w) does
// not (a no-op replacement would just delete an edge, which Theorem 4 does
// not license), and the pivot p still has exactly degree 3. The pivot claim
// commits atomically with the rewiring, so a fleet performs at most one
// replacement per pivot in total. Reports whether the replacement happened.
func (o *Overlay) ReplaceEdgeGuarded(u, p, w graph.NodeID) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, used := o.usedPivots[p]; used {
		return false
	}
	uLst := o.materializeLocked(u)
	if !graph.ContainsSorted(uLst, p) || graph.ContainsSorted(uLst, w) || u == w {
		return false
	}
	pLst := o.materializeLocked(p)
	if !ReplaceablePivot(len(pLst)) || !graph.ContainsSorted(pLst, w) {
		return false // pivot degree changed, or w is no longer p's neighbor
	}
	o.removeEdgeLocked(u, p)
	o.addEdgeLocked(u, w)
	o.usedPivots[p] = struct{}{}
	return true
}

// PivotUsed reports whether p already hosted a Theorem 4 replacement.
func (o *Overlay) PivotUsed(p graph.NodeID) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	_, used := o.usedPivots[p]
	return used
}

// RemovedCount returns the number of net edge removals.
func (o *Overlay) RemovedCount() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.nRemoved
}

// AddedCount returns the number of net edge additions.
func (o *Overlay) AddedCount() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.nAdded
}

// Removed reports whether (u,v) was explicitly removed.
func (o *Overlay) Removed(u, v graph.NodeID) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return containsUnsorted(o.removedAdj[u], v)
}

// Delta captures the overlay's complete rewiring state — removed edges,
// added edges, and the pivots already spent on Theorem 4 replacements — as
// sorted slices, suitable for serializing into a session checkpoint. The
// pivot set matters for byte-identical resumption: whether a pivot is still
// available decides whether the sampler draws its replacement coin at all,
// so losing it would desynchronize the RNG stream from an uninterrupted run.
func (o *Overlay) Delta() (removed, added []graph.EdgeKey, pivots []graph.NodeID) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	removed = edgeKeys(o.removedAdj, o.nRemoved)
	added = edgeKeys(o.addedAdj, o.nAdded)
	pivots = make([]graph.NodeID, 0, len(o.usedPivots))
	for p := range o.usedPivots {
		pivots = append(pivots, p)
	}
	slices.Sort(pivots)
	return removed, added, pivots
}

// RestoreDelta installs a delta captured with Delta into a fresh overlay —
// the resume half of session checkpointing. It writes the partner lists
// directly, so restoration issues no base queries (the public mutators
// consult base neighborhoods, which over a cold provider would spend
// budget). Call it only on an empty overlay, before any walker runs; the
// materialized-list cache is dropped so lists rebuild lazily. Repeated keys
// count once.
func (o *Overlay) RestoreDelta(removed, added []graph.EdgeKey, pivots []graph.NodeID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nRemoved += o.restoreLocked(o.removedAdj, removed)
	o.nAdded += o.restoreLocked(o.addedAdj, added)
	for _, p := range pivots {
		o.usedPivots[p] = struct{}{}
	}
}

// restoreLocked links every distinct key of keys into adj and returns how
// many it linked.
func (o *Overlay) restoreLocked(adj map[graph.NodeID][]graph.NodeID, keys []graph.EdgeKey) int {
	keys = slices.Compact(slices.Sorted(slices.Values(keys)))
	for _, k := range keys {
		u, v := k.Nodes()
		link(adj, u, v)
		o.lists.Delete(u)
		o.lists.Delete(v)
	}
	return len(keys)
}

// edgeKeys returns the n edges adj lists, each once, sorted.
func edgeKeys(adj map[graph.NodeID][]graph.NodeID, n int) []graph.EdgeKey {
	out := make([]graph.EdgeKey, 0, n)
	for u, vs := range adj {
		for _, v := range vs {
			if u < v {
				out = append(out, graph.KeyOf(u, v))
			}
		}
	}
	slices.Sort(out)
	return out
}

// Materialize builds the full overlay as a concrete graph over n nodes.
// It reads every node's base neighborhood, so call it only when the base is
// a local graph (or a client whose budget you are willing to spend) — the
// paper does exactly this in §V-A.3 to compute overlay mixing times after
// running the walk to full coverage. The write lock is held throughout, so
// the result is a consistent snapshot even with walkers still running.
func (o *Overlay) Materialize(n int) *graph.Graph {
	o.mu.Lock()
	defer o.mu.Unlock()
	b := graph.NewBuilder(n)
	for u := graph.NodeID(0); int(u) < n; u++ {
		gone := o.removedAdj[u]
		for _, v := range o.base.Neighbors(u) {
			if u < v && !containsUnsorted(gone, v) {
				b.AddEdge(u, v)
			}
		}
	}
	for _, k := range edgeKeys(o.addedAdj, o.nAdded) {
		b.AddEdge(k.Nodes())
	}
	return b.Build()
}

// containsUnsorted scans a (short) partner list; removal counts per node are
// tiny next to degrees, so a linear scan beats building a set.
func containsUnsorted(lst []graph.NodeID, x graph.NodeID) bool {
	for _, v := range lst {
		if v == x {
			return true
		}
	}
	return false
}

func without(lst []graph.NodeID, x graph.NodeID) []graph.NodeID {
	for i, v := range lst {
		if v == x {
			return append(lst[:i], lst[i+1:]...)
		}
	}
	return lst
}

// Prefetch forwards speculative fetch hints to the base source when it
// supports them (osn.Client with a running pool does) and reports how many
// were accepted. Overlay rewiring never adds nodes, only edges, so warming
// the base cache for any id the walk may demand is always meaningful. With a
// non-prefetchable base every hint is refused — the overlay then still
// satisfies walk.PrefetchSource, just as a sink.
func (o *Overlay) Prefetch(ids ...graph.NodeID) int {
	if o.pf == nil {
		return 0
	}
	return o.pf.Prefetch(ids...)
}

// Known reports whether a prefetch hint for v would be redundant. Without a
// prefetchable base it falls back to whether v's overlay list is already
// materialized.
func (o *Overlay) Known(v graph.NodeID) bool {
	if o.pf != nil {
		return o.pf.Known(v)
	}
	return o.lists.Load(v) != nil
}
