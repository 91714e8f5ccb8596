package core

import (
	"slices"
	"sync"

	"rewire/internal/graph"
	"rewire/internal/store"
	"rewire/internal/walk"
)

// Overlay is the virtual rewired topology: the base graph (seen through a
// walk.Source, typically the caching OSN client) plus an edge-delta set of
// removals and additions. It implements walk.Source itself, so any walker
// can run "on the overlay" — which is exactly the paper's trick: the random
// walk follows the modified topology while only the original network exists.
//
// The overlay never mutates the base; it is the third party's bookkeeping.
//
// Overlay is safe for concurrent use, and its storage is sharded
// (internal/store): the edge-delta sets and the materialized-list cache live
// in power-of-two-sharded maps, so fleet walkers reading different nodes'
// overlay lists never touch the same lock. A single RWMutex (mu) still
// serializes *mutations* against list materialization — edits are rare next
// to reads, and cross-key atomicity (a removal touches both endpoints' lists
// plus a delta set) is exactly what per-key shard locks cannot give — but
// the hot path, re-reading an already-materialized list, is one shard
// read-lock away and never blocks on mu. Materialized lists are carved from
// a slab arena (one allocation amortizes hundreds of lists) and are
// immutable snapshots with clipped capacity: invalidation replaces them
// rather than editing them in place, so holding one across a concurrent
// mutation is safe, and appending to one reallocates instead of corrupting
// the arena.
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
	// hold it shared. Lock order: mu first, then any shard lock of the
	// sharded maps below; never the reverse.
	mu      sync.RWMutex
	removed *store.Map[graph.EdgeKey, struct{}]
	added   *store.Map[graph.EdgeKey, struct{}]
	// addedAdj lists added-edge partners per node for list materialization.
	// Guarded by mu (only touched by mutators and materializing readers).
	addedAdj map[graph.NodeID][]graph.NodeID
	// removedAdj mirrors the removed set as per-node partner lists, also
	// guarded by mu. It exists so materialization — which already holds mu
	// and has the deltas frozen — filters a degree-d base list without d
	// shard-lock acquisitions on the sharded removed set; the common case
	// (no removals at v) is one empty map read.
	removedAdj map[graph.NodeID][]graph.NodeID
	// lists caches materialized overlay neighbor lists, invalidated on
	// mutation of either endpoint. A hit never takes mu.
	lists *store.Map[graph.NodeID, []graph.NodeID]
	// arena backs the materialized lists' storage.
	arena *store.Arena[graph.NodeID]
	// usedPivots records nodes that already hosted a Theorem 4 replacement.
	// It lives on the overlay — not the sampler — so the one-replacement-
	// per-pivot bound holds across a whole fleet sharing this overlay,
	// keeping total rewiring O(|V|) regardless of k. Guarded by mu.
	usedPivots map[graph.NodeID]struct{}
}

// NewOverlay wraps base with an empty delta. Its sharded stores size
// themselves to the machine (store.DefaultShards).
func NewOverlay(base walk.Source) *Overlay {
	pf, _ := base.(walk.PrefetchSource)
	failer, _ := base.(walk.Failing)
	return &Overlay{
		base:       base,
		pf:         pf,
		failer:     failer,
		removed:    store.NewMap[graph.EdgeKey, struct{}](0),
		added:      store.NewMap[graph.EdgeKey, struct{}](0),
		addedAdj:   make(map[graph.NodeID][]graph.NodeID),
		removedAdj: make(map[graph.NodeID][]graph.NodeID),
		lists:      store.NewMap[graph.NodeID, []graph.NodeID](0),
		arena:      store.NewArena[graph.NodeID](0),
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
	if lst, ok := o.lists.Get(v); ok {
		return lst
	}
	// Warm the base cache BEFORE taking the overlay lock: on a fresh node
	// the base read is the expensive part (a real provider round-trip
	// through the client), and holding the overlay lock across it would
	// serialize the whole fleet behind one walker's network wait. Base
	// lists are immutable per node, so the early fetch is safe; the
	// materialization below re-reads it as a cache hit.
	o.base.Neighbors(v)
	if o.failed() {
		// The warm-up read was aborted (cancellation, deadline, budget):
		// return nil like an absorbing read, WITHOUT materializing — caching
		// a truncated list here would corrupt every later run over this
		// overlay.
		return nil
	}
	// Materialize under the shared lock: concurrent readers materialize
	// different (or even the same) nodes in parallel; mutators are excluded,
	// so the delta sets cannot change between the reads below and the cache
	// publish.
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.materializeLocked(v)
}

// failed reports whether the base source is currently in a failed state
// (only ever true for failure-reporting bases, i.e. a walk.Bound whose run
// was cancelled or ran out of budget).
func (o *Overlay) failed() bool {
	return o.failer != nil && o.failer.Err() != nil
}

// cachedList returns v's materialized overlay list if one exists, without
// triggering materialization (and therefore without any base query).
func (o *Overlay) cachedList(v graph.NodeID) ([]graph.NodeID, bool) {
	return o.lists.Get(v)
}

// Degree returns v's overlay degree.
func (o *Overlay) Degree(v graph.NodeID) int { return len(o.Neighbors(v)) }

// HasEdge reports whether (u, v) exists in the overlay. It consults the
// delta sets first and falls back to u's materialized list.
func (o *Overlay) HasEdge(u, v graph.NodeID) bool {
	k := graph.KeyOf(u, v)
	if o.removed.Contains(k) {
		return false
	}
	if o.added.Contains(k) {
		return true
	}
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
	k := graph.KeyOf(u, v)
	if o.added.Contains(k) {
		o.added.Delete(k)
		o.addedAdj[u] = without(o.addedAdj[u], v)
		o.addedAdj[v] = without(o.addedAdj[v], u)
	} else if graph.ContainsSorted(o.base.Neighbors(u), v) {
		if o.removed.Contains(k) {
			return // already removed: a no-op, and appending to the
			// removedAdj mirror twice would corrupt a later restore
		}
		o.removed.Put(k, struct{}{})
		o.removedAdj[u] = append(o.removedAdj[u], v)
		o.removedAdj[v] = append(o.removedAdj[v], u)
	} else {
		// Neither an addition nor a base edge: a true no-op. Guarding here
		// keeps the removed set a subset of the base edge set even when a
		// fleet member acts on a stale neighbor list (e.g. the added edge it
		// saw was cancelled concurrently), so RemovedCount and Materialize
		// stay exact.
		return
	}
	o.lists.Delete(u)
	o.lists.Delete(v)
}

// AddEdge inserts (u, v) into the overlay: any removal mark is cleared, and
// the edge is recorded as an addition only when the base graph does not
// already carry it (so re-adding a base edge or restoring a removed one
// leaves the delta sets clean). Self-loops are ignored.
func (o *Overlay) AddEdge(u, v graph.NodeID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.addEdgeLocked(u, v)
}

func (o *Overlay) addEdgeLocked(u, v graph.NodeID) {
	if u == v {
		return
	}
	k := graph.KeyOf(u, v)
	if o.removed.Contains(k) {
		o.removed.Delete(k)
		o.removedAdj[u] = without(o.removedAdj[u], v)
		o.removedAdj[v] = without(o.removedAdj[v], u)
	}
	o.lists.Delete(u)
	o.lists.Delete(v)
	if graph.ContainsSorted(o.base.Neighbors(u), v) {
		return // present in the base; clearing the removal mark restored it
	}
	if !o.added.Contains(k) {
		o.added.Put(k, struct{}{})
		o.addedAdj[u] = append(o.addedAdj[u], v)
		o.addedAdj[v] = append(o.addedAdj[v], u)
	}
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
// either way the delta sets are frozen). Callers must only reach here for
// nodes whose base neighborhood is already cached by the client (the sampler
// guarantees that: it queries a node before judging its edges), so the base
// read never blocks on a provider round-trip while the lock is held.
func (o *Overlay) materializeLocked(v graph.NodeID) []graph.NodeID {
	if lst, ok := o.lists.Get(v); ok {
		return lst
	}
	base := o.base.Neighbors(v)
	extra := o.addedAdj[v]
	lst := o.arena.Alloc(len(base) + len(extra))
	if gone := o.removedAdj[v]; len(gone) == 0 {
		lst = append(lst, base...)
	} else {
		for _, w := range base {
			if !containsUnsorted(gone, w) {
				lst = append(lst, w)
			}
		}
	}
	if len(extra) > 0 {
		lst = append(lst, extra...)
		slices.Sort(lst)
	}
	// Clip the snapshot's capacity: a caller that appends to it reallocates
	// instead of scribbling over the arena cells reserved for this list.
	lst = lst[:len(lst):len(lst)]
	if o.failed() {
		// The base read may have been truncated by a cancelled run: hand the
		// caller a best-effort list (errors fail toward no mutation in the
		// guarded commits) but do not cache it past the failure.
		return lst
	}
	o.lists.Put(v, lst)
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
	if o.added.Contains(graph.KeyOf(u, v)) {
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
func (o *Overlay) RemovedCount() int { return o.removed.Len() }

// AddedCount returns the number of net edge additions.
func (o *Overlay) AddedCount() int { return o.added.Len() }

// Removed reports whether (u,v) was explicitly removed.
func (o *Overlay) Removed(u, v graph.NodeID) bool {
	return o.removed.Contains(graph.KeyOf(u, v))
}

// IsAdded reports whether (u,v) is an overlay addition (not a base edge).
func (o *Overlay) IsAdded(u, v graph.NodeID) bool {
	return o.added.Contains(graph.KeyOf(u, v))
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
	removed = o.removed.Keys()
	added = o.added.Keys()
	pivots = make([]graph.NodeID, 0, len(o.usedPivots))
	for p := range o.usedPivots {
		pivots = append(pivots, p)
	}
	slices.Sort(removed)
	slices.Sort(added)
	slices.Sort(pivots)
	return removed, added, pivots
}

// RestoreDelta installs a delta captured with Delta into a fresh overlay —
// the resume half of session checkpointing. It writes the sets and their
// adjacency mirrors directly, so restoration issues no base queries (the
// public mutators consult base neighborhoods, which over a cold provider
// would spend budget). Call it only on an empty overlay, before any walker
// runs; the materialized-list cache is dropped so lists rebuild lazily.
func (o *Overlay) RestoreDelta(removed, added []graph.EdgeKey, pivots []graph.NodeID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, k := range removed {
		if o.removed.Contains(k) {
			continue
		}
		u, v := k.Nodes()
		o.removed.Put(k, struct{}{})
		o.removedAdj[u] = append(o.removedAdj[u], v)
		o.removedAdj[v] = append(o.removedAdj[v], u)
		o.lists.Delete(u)
		o.lists.Delete(v)
	}
	for _, k := range added {
		if o.added.Contains(k) {
			continue
		}
		u, v := k.Nodes()
		o.added.Put(k, struct{}{})
		o.addedAdj[u] = append(o.addedAdj[u], v)
		o.addedAdj[v] = append(o.addedAdj[v], u)
		o.lists.Delete(u)
		o.lists.Delete(v)
	}
	for _, p := range pivots {
		o.usedPivots[p] = struct{}{}
	}
}

// RemovedEdges returns the keys of all removed edges (order unspecified).
// Useful for reconstructing overlay degrees against a local copy of the
// base graph without touching the query budget.
func (o *Overlay) RemovedEdges() []graph.EdgeKey { return o.removed.Keys() }

// AddedEdges returns the keys of all added edges (order unspecified).
func (o *Overlay) AddedEdges() []graph.EdgeKey { return o.added.Keys() }

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
	for _, k := range o.added.Keys() {
		u, v := k.Nodes()
		b.AddEdge(u, v)
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
	_, ok := o.cachedList(v)
	return ok
}

// CommonOverlayNeighbors intersects the overlay neighbor lists of u and v.
func (o *Overlay) CommonOverlayNeighbors(u, v graph.NodeID) []graph.NodeID {
	return graph.IntersectSorted(o.Neighbors(u), o.Neighbors(v))
}
