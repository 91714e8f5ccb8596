package core

import (
	"sort"

	"rewire/internal/graph"
	"rewire/internal/rng"
)

// CriterionBase selects which neighborhoods BuildOverlay evaluates the
// removal criterion against. The paper's Theorems 3/5 are stated as static
// properties of the original graph G, and Algorithm 1 tests edges with the
// neighborhoods the queries return — i.e., original lists (EvalOriginal), the
// only base the Sampler implements. Evaluated inductively against the
// evolving overlay instead (EvalOverlay), each removal is individually
// conductance-safe on the current graph, but the process reaches a much
// denser fixpoint; the offline conductance property tests keep it as their
// reference.
type CriterionBase int

const (
	// EvalOriginal tests the criterion on original (queried) neighborhoods.
	// Removals are guarded: both endpoints keep overlay degree >= 2 and at
	// least one common overlay neighbor, so the overlay stays connected.
	EvalOriginal CriterionBase = iota
	// EvalOverlay tests the criterion on current overlay neighborhoods.
	EvalOverlay
)

// BuildOptions controls offline overlay construction on a fully known
// graph — the mode used for the paper's spectral measurements (running
// example G* and G**, Fig 10) where the walk-discovered overlay is
// approximated by applying the theorems to every edge directly.
type BuildOptions struct {
	// Removal applies Theorem 3 (or 5, see ExtendedDegrees) edge removal.
	Removal bool
	// Replacement applies Theorem 4 degree-3 pivot replacement.
	Replacement bool
	// ExtendedDegrees applies Theorem 5 with full degree knowledge (offline
	// we know every degree "for free").
	ExtendedDegrees bool
	// Criterion selects the evaluation base: EvalOriginal (default, the
	// Sampler's) tests edges against the input graph with connectivity
	// guards on the evolving overlay; EvalOverlay re-tests against the
	// current overlay each sweep.
	Criterion CriterionBase
}

// maxBuildPasses bounds removal sweeps; a sweep that removes nothing stops
// early.
const maxBuildPasses = 8

// BuildStats reports what the builder did.
type BuildStats struct {
	Removed      int
	Replacements int
	Passes       int
}

// mutableGraph is adjacency-set form for efficient edge deletion.
type mutableGraph struct {
	adj []map[graph.NodeID]struct{}
}

func newMutable(g *graph.Graph) *mutableGraph {
	m := &mutableGraph{adj: make([]map[graph.NodeID]struct{}, g.NumNodes())}
	for u := 0; u < g.NumNodes(); u++ {
		set := make(map[graph.NodeID]struct{}, g.Degree(graph.NodeID(u)))
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			set[v] = struct{}{}
		}
		m.adj[u] = set
	}
	return m
}

func (m *mutableGraph) degree(u graph.NodeID) int { return len(m.adj[u]) }

func (m *mutableGraph) hasEdge(u, v graph.NodeID) bool {
	_, ok := m.adj[u][v]
	return ok
}

func (m *mutableGraph) removeEdge(u, v graph.NodeID) {
	delete(m.adj[u], v)
	delete(m.adj[v], u)
}

func (m *mutableGraph) addEdge(u, v graph.NodeID) {
	m.adj[u][v] = struct{}{}
	m.adj[v][u] = struct{}{}
}

func (m *mutableGraph) commonCount(u, v graph.NodeID) int {
	a, b := m.adj[u], m.adj[v]
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for w := range a {
		if _, ok := b[w]; ok {
			n++
		}
	}
	return n
}

// commonWith lists common neighbors, sorted. Today's consumers (the
// Theorem 3/5 criteria) only count and sum over the list, but collecting
// from a map range must not bake iteration order into anything a future
// caller might branch on — sorting keeps the helper seed-deterministic by
// construction.
func (m *mutableGraph) commonWith(u, v graph.NodeID) []graph.NodeID {
	a, b := m.adj[u], m.adj[v]
	if len(b) < len(a) {
		a, b = b, a
	}
	var out []graph.NodeID
	for w := range a {
		if _, ok := b[w]; ok {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *mutableGraph) build() *graph.Graph {
	b := graph.NewBuilder(len(m.adj))
	for u := range m.adj {
		for v := range m.adj[u] {
			if graph.NodeID(u) < v {
				b.AddEdge(graph.NodeID(u), v)
			}
		}
	}
	return b.Build()
}

// fullDegreeCache serves Theorem 5 with complete current-degree knowledge.
type fullDegreeCache struct{ m *mutableGraph }

func (c fullDegreeCache) CachedDegree(v graph.NodeID) (int, bool) {
	return c.m.degree(v), true
}

// originalDegreeCache serves Theorem 5 with input-graph degrees (the
// EvalOriginal path).
type originalDegreeCache struct{ g *graph.Graph }

func (c originalDegreeCache) CachedDegree(v graph.NodeID) (int, bool) {
	return c.g.Degree(v), true
}

// BuildOverlay constructs the overlay graph G* (and with Replacement, G**)
// from a fully known graph. Removal sweeps visit edges in seeded random
// order and re-test against the *current* overlay (the criterion must track
// the evolving topology — on the original barbell it would fire for every
// clique edge); sweeps repeat until a fixpoint or maxBuildPasses. Replacement
// then makes one Theorem 4 move per degree-3 pivot where possible.
//
// The result is order-dependent (so is the paper's walk); pass a seeded rng
// for reproducibility.
func BuildOverlay(g *graph.Graph, opt BuildOptions, r *rng.Rand) (*graph.Graph, BuildStats) {
	m := newMutable(g)
	var stats BuildStats
	var cache DegreeCache
	if opt.ExtendedDegrees {
		cache = fullDegreeCache{m}
	}

	if opt.Removal {
		edges := g.Edges()
		order := r.Perm(len(edges))
		for pass := 0; pass < maxBuildPasses; pass++ {
			stats.Passes++
			removedThisPass := 0
			for _, i := range order {
				e := edges[i]
				if !m.hasEdge(e.U, e.V) {
					continue
				}
				ku, kv := m.degree(e.U), m.degree(e.V)
				if ku <= 1 || kv <= 1 {
					continue // stranding guard
				}
				var fires bool
				if opt.Criterion == EvalOverlay {
					fires = Removable(m.commonWith(e.U, e.V), ku, kv, cache)
				} else {
					// Static criterion on the input graph; connectivity
					// guard on the evolving overlay.
					if m.commonCount(e.U, e.V) < 1 {
						continue
					}
					var origCache DegreeCache
					if opt.ExtendedDegrees {
						origCache = originalDegreeCache{g}
					}
					fires = Removable(g.CommonNeighbors(e.U, e.V), g.Degree(e.U), g.Degree(e.V), origCache)
				}
				if fires {
					m.removeEdge(e.U, e.V)
					removedThisPass++
				}
			}
			stats.Removed += removedThisPass
			if removedThisPass == 0 {
				break
			}
		}
	}

	if opt.Replacement {
		pivots := r.Perm(g.NumNodes())
		for _, pi := range pivots {
			p := graph.NodeID(pi)
			if !ReplaceablePivot(m.degree(p)) {
				continue
			}
			nbrs := make([]graph.NodeID, 0, 3)
			for w := range m.adj[p] {
				nbrs = append(nbrs, w)
			}
			sort.Slice(nbrs, func(a, b int) bool { return nbrs[a] < nbrs[b] })
			// Random (x, y) pair with e(x,y) absent: replace e(x,p) by e(x,y).
			perm := r.Perm(len(nbrs))
			done := false
			for _, xi := range perm {
				if done {
					break
				}
				x := nbrs[xi]
				for _, yi := range perm {
					y := nbrs[yi]
					if x == y || m.hasEdge(x, y) {
						continue
					}
					m.removeEdge(x, p)
					m.addEdge(x, y)
					stats.Replacements++
					done = true
					break
				}
			}
		}
	}

	return m.build(), stats
}
