// Package graph provides the undirected-graph substrate used by every other
// component: a compact CSR (compressed sparse row) representation with sorted
// neighbor lists, builders, directed graphs with reciprocal-edge conversion
// (the paper's §V-A.2 dataset preparation), traversals, connectivity,
// effective diameter, and edge-list serialization.
//
// Node identifiers are dense int32 values in [0, N). Sorted neighbor slices
// make membership tests O(log d) and common-neighborhood intersection — the
// heart of the paper's Theorem 3 removal criterion — O(d_u + d_v).
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node. IDs are dense: a graph with N nodes uses IDs
// 0..N-1.
type NodeID = int32

// Edge is an undirected edge. By convention U <= V in normalized form.
type Edge struct {
	U, V NodeID
}

// Canon returns the edge with endpoints ordered so that U <= V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// EdgeKey packs a canonical edge into a single comparable 64-bit key, used by
// the overlay's delta snapshots and the sampler's verdict memo.
type EdgeKey uint64

// Key returns the canonical packed key of e.
func (e Edge) Key() EdgeKey {
	c := e.Canon()
	return EdgeKey(uint64(uint32(c.U))<<32 | uint64(uint32(c.V)))
}

// KeyOf returns the packed canonical key for the edge (u, v).
func KeyOf(u, v NodeID) EdgeKey { return Edge{u, v}.Key() }

// Nodes returns the endpoints of a key in canonical (U <= V) order.
func (k EdgeKey) Nodes() (NodeID, NodeID) {
	return NodeID(uint32(k >> 32)), NodeID(uint32(k))
}

// Graph is an immutable simple undirected graph in CSR (compressed sparse
// row) form: node u's neighbors live in neigh[offsets[u]:offsets[u+1]],
// sorted ascending, free of duplicates and self-loops. Two flat arrays hold
// the whole topology — 4 bytes per directed edge entry plus 4 bytes per node
// — so million-node graphs fit in a fraction of the memory of per-node
// slices, and a neighbor read is a zero-allocation slice view.
//
// Build one with a Builder or a generator from internal/gen.
type Graph struct {
	// offsets has NumNodes+1 entries; offsets[0] == 0 and offsets[u+1] -
	// offsets[u] is u's degree. uint32 bounds the directed-entry count (twice
	// the edges) at ~2.1 billion, far above the paper's scale.
	offsets []uint32
	// neigh is the concatenation of all sorted neighbor lists.
	neigh []NodeID
	edges int
}

// NewFromAdjacency builds a graph from pre-built adjacency lists. The caller
// warrants that the lists are symmetric; each list is sorted and deduplicated
// defensively and self-loops are dropped. The input is not retained. Mostly
// useful in tests; prefer Builder elsewhere.
func NewFromAdjacency(adj [][]NodeID) *Graph {
	offsets := make([]uint32, len(adj)+1)
	for u, lst := range adj {
		offsets[u+1] = offsets[u] + uint32(len(lst))
	}
	neigh := make([]NodeID, offsets[len(adj)])
	for u, lst := range adj {
		copy(neigh[offsets[u]:], lst)
	}
	return finishCSR(offsets, neigh)
}

// finishCSR sorts each row and hands the result to compactCSR.
func finishCSR(offsets []uint32, neigh []NodeID) *Graph {
	for u := 0; u+1 < len(offsets); u++ {
		slices.Sort(neigh[offsets[u]:offsets[u+1]])
	}
	return compactCSR(offsets, neigh)
}

// compactCSR removes duplicates and self-loops from sorted rows, compacting
// the flat array in place, and returns the finished graph. offsets and neigh
// are taken over (and shrunk) by the call.
func compactCSR(offsets []uint32, neigh []NodeID) *Graph {
	n := len(offsets) - 1
	w := uint32(0)
	for u := 0; u < n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		offsets[u] = w // rows only shrink, so w never overtakes lo
		for i, v := range neigh[lo:hi] {
			if v == NodeID(u) {
				continue // self-loop
			}
			if i > 0 && w > offsets[u] && neigh[w-1] == v {
				continue // duplicate
			}
			neigh[w] = v
			w++
		}
	}
	offsets[n] = w
	return &Graph{offsets: offsets, neigh: neigh[:w:w], edges: int(w) / 2}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns the degree of u.
func (g *Graph) Degree(u NodeID) int { return int(g.offsets[u+1] - g.offsets[u]) }

// Neighbors returns u's sorted neighbor list as a read-only view into the
// graph's CSR storage: zero allocations, and the view's capacity is clipped
// to its length, so an append by the caller reallocates instead of
// overwriting the next node's row. The elements themselves must not be
// modified.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	lo, hi := g.offsets[u], g.offsets[u+1]
	//rewirelint:allow aliasing zero-alloc CSR view is the documented contract; capacity clipped so appends reallocate
	return g.neigh[lo:hi:hi]
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	n := g.NumNodes()
	if int(u) >= n || int(v) >= n || u < 0 || v < 0 {
		return false
	}
	lst := g.Neighbors(u)
	if other := g.Neighbors(v); len(other) < len(lst) {
		lst, v = other, u
	}
	return ContainsSorted(lst, v)
}

// Edges returns all edges in canonical order (U <= V), sorted.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v {
				out = append(out, Edge{NodeID(u), v})
			}
		}
	}
	return out
}

// WithEdges returns a new graph holding g's edges plus extra; duplicates
// and self-loops in extra are dropped and g is unchanged. It copies g's rows
// once and sorts only the rows that gain a neighbor, so adding a few edges
// to a large graph costs far less than rebuilding it.
func (g *Graph) WithEdges(extra []Edge) *Graph {
	n := g.NumNodes()
	added := make([]uint32, n)
	for _, e := range extra {
		added[e.U]++
		added[e.V]++
	}
	offsets := make([]uint32, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + uint32(g.Degree(NodeID(u))) + added[u]
	}
	neigh := make([]NodeID, offsets[n])
	for u := 0; u < n; u++ {
		copy(neigh[offsets[u]:], g.Neighbors(NodeID(u)))
	}
	// Extras fill each row from its end, where the copy left room.
	for _, e := range extra {
		added[e.U]--
		neigh[offsets[e.U+1]-1-added[e.U]] = e.V
		added[e.V]--
		neigh[offsets[e.V+1]-1-added[e.V]] = e.U
	}
	for _, e := range extra {
		slices.Sort(neigh[offsets[e.U]:offsets[e.U+1]])
		slices.Sort(neigh[offsets[e.V]:offsets[e.V+1]])
	}
	return compactCSR(offsets, neigh)
}

// CommonNeighbors returns the sorted intersection of the neighbor lists of u
// and v: |N(u) ∩ N(v)| drives the paper's removal criterion. The result is
// freshly allocated.
func (g *Graph) CommonNeighbors(u, v NodeID) []NodeID {
	return IntersectSorted(g.Neighbors(u), g.Neighbors(v))
}

// CountCommonNeighbors returns |N(u) ∩ N(v)| without allocating.
func (g *Graph) CountCommonNeighbors(u, v NodeID) int {
	return CountIntersectSorted(g.Neighbors(u), g.Neighbors(v))
}

// IntersectSorted intersects two ascending NodeID slices.
func IntersectSorted(a, b []NodeID) []NodeID {
	return IntersectSortedInto(nil, a, b)
}

// IntersectSortedInto is IntersectSorted appending into dst[:0], so a caller
// on a hot path can reuse one scratch buffer instead of allocating per call
// (the walk inner loop's zero-allocation steady state depends on this).
func IntersectSortedInto(dst, a, b []NodeID) []NodeID {
	out := dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// CountIntersectSorted counts the intersection size of two ascending slices.
func CountIntersectSorted(a, b []NodeID) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// IntersectsSorted reports whether two ascending slices share an element,
// stopping the merge at the first one.
func IntersectsSorted(a, b []NodeID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// ContainsSorted reports whether x occurs in the ascending slice lst.
func ContainsSorted(lst []NodeID, x NodeID) bool {
	_, found := slices.BinarySearch(lst, x)
	return found
}

// DegreeSum returns the sum of all degrees (2 * NumEdges for consistency
// checking).
func (g *Graph) DegreeSum() int { return len(g.neigh) }

// MinDegree returns the smallest degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	m := g.Degree(0)
	for u := NodeID(1); int(u) < n; u++ {
		if d := g.Degree(u); d < m {
			m = d
		}
	}
	return m
}

// MaxDegree returns the largest degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	m := 0
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(NodeID(u)); d > m {
			m = d
		}
	}
	return m
}

// AverageDegree returns mean degree, the paper's default aggregate query for
// topological datasets.
func (g *Graph) AverageDegree() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return float64(g.DegreeSum()) / float64(g.NumNodes())
}

// DegreeHistogram returns counts[d] = number of nodes of degree d.
func (g *Graph) DegreeHistogram() []int {
	counts := make([]int, g.MaxDegree()+1)
	for u := 0; u < g.NumNodes(); u++ {
		counts[g.Degree(NodeID(u))]++
	}
	return counts
}

// FootprintBytes returns the heap footprint of the CSR arrays — what the
// memory smoke test budgets for a million-node graph.
func (g *Graph) FootprintBytes() int {
	return 4*len(g.offsets) + 4*len(g.neigh)
}

// Clone returns an independent deep copy of the CSR arrays. The Graph API is
// immutable, so cloning only matters for callers that reach into a graph's
// storage with unsafe tricks — and for tests proving they cannot.
func (g *Graph) Clone() *Graph {
	return &Graph{
		offsets: slices.Clone(g.offsets),
		neigh:   slices.Clone(g.neigh),
		edges:   g.edges,
	}
}

// Validate checks structural invariants (offset monotonicity, sortedness,
// symmetry, no self loops, no duplicates, edge-count consistency).
// Generators call it in tests.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.offsets) > 0 && g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	if len(g.offsets) > 0 && int(g.offsets[n]) != len(g.neigh) {
		return fmt.Errorf("graph: offsets[%d] = %d does not cover %d entries", n, g.offsets[n], len(g.neigh))
	}
	total := 0
	for u := 0; u < n; u++ {
		if g.offsets[u+1] < g.offsets[u] {
			return fmt.Errorf("graph: offsets decrease at node %d", u)
		}
		lst := g.Neighbors(NodeID(u))
		for i, v := range lst {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", u, v)
			}
			if v == NodeID(u) {
				return fmt.Errorf("graph: self-loop at node %d", u)
			}
			if i > 0 && lst[i-1] >= v {
				return fmt.Errorf("graph: adjacency of node %d not strictly ascending at index %d", u, i)
			}
			if !ContainsSorted(g.Neighbors(v), NodeID(u)) {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", u, v)
			}
		}
		total += len(lst)
	}
	if total != 2*g.edges {
		return fmt.Errorf("graph: edge count %d inconsistent with degree sum %d", g.edges, total)
	}
	return nil
}
