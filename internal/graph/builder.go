package graph

import "slices"

// Builder accumulates undirected edges and produces an immutable CSR Graph.
// Duplicate edges and self-loops are silently dropped at Build, matching how
// the paper treats its datasets as simple graphs.
//
// The builder stores pending edges as one flat list of endpoints (u0, v0,
// u1, v1, ...; 8 bytes per edge) plus a per-node degree counter — no
// per-node slices — so building a million-node graph costs a handful of
// large allocations instead of a million small ones, and Build turns the
// pairs into CSR with a counting sort. Callers that must reject duplicates
// as they go keep their own index.
type Builder struct {
	n     int
	pairs []NodeID
	deg   []int32
}

// NewBuilder returns a builder for a graph over n nodes (IDs 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n, deg: make([]int32, n)}
}

// NumNodes returns the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// AddEdge records the undirected edge (u, v). Self-loops are ignored.
// Out-of-range endpoints panic: generator bugs should fail loudly.
func (b *Builder) AddEdge(u, v NodeID) {
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic("graph: AddEdge endpoint out of range")
	}
	if u == v {
		return
	}
	b.pairs = append(b.pairs, u, v)
	b.deg[u]++
	b.deg[v]++
}

// Grow reserves room for m more edges, so a caller that knows its edge
// count up front does not re-copy the pair list as it grows, and Build can
// hand the list's array to the graph without slack.
func (b *Builder) Grow(m int) { b.pairs = slices.Grow(b.pairs, 2*m) }

// Degree returns the current (pre-dedup) degree of u.
func (b *Builder) Degree(u NodeID) int { return int(b.deg[u]) }

// Build finalizes the graph with two counting-sort passes: the first
// scatters the pair list into CSR rows in arbitrary order, the second
// visits those rows by ascending node v and appends v to the row of each of
// v's neighbors, so every row comes out sorted without a comparison sort.
// The pair list has one entry per CSR slot, so the second pass writes over
// it and Build holds at most two arrays of 2m entries at a time.
// Duplicates, now adjacent, are then dropped in place. The builder must not
// be reused afterwards.
func (b *Builder) Build() *Graph {
	offsets := make([]uint32, b.n+1)
	for u, d := range b.deg {
		offsets[u+1] = offsets[u] + uint32(d)
	}
	unsorted := make([]NodeID, len(b.pairs))
	cursor := make([]uint32, b.n)
	copy(cursor, offsets[:b.n])
	for i := 0; i < len(b.pairs); i += 2 {
		u, v := b.pairs[i], b.pairs[i+1]
		unsorted[cursor[u]] = v
		cursor[u]++
		unsorted[cursor[v]] = u
		cursor[v]++
	}
	neigh := b.pairs
	b.pairs, b.deg = nil, nil
	copy(cursor, offsets[:b.n])
	for v := 0; v < b.n; v++ {
		for _, u := range unsorted[offsets[v]:offsets[v+1]] {
			neigh[cursor[u]] = NodeID(v)
			cursor[u]++
		}
	}
	g := compactCSR(offsets, neigh)
	// A list grown by append can end with spare capacity of up to a
	// quarter of its length (half while small); past an eighth, copy the
	// rows out rather than keep that slack for the graph's life. A list
	// sized by Grow is kept as it is.
	if cap(neigh)-len(neigh) > len(neigh)/8 {
		g.neigh = slices.Clone(g.neigh)
	}
	return g
}

// FromEdges builds a graph over n nodes from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.Grow(len(edges))
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
