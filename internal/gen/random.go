package gen

import (
	"rewire/internal/graph"
	"rewire/internal/rng"
)

// GNP returns an Erdős–Rényi G(n, p) graph.
func GNP(n int, p float64, r *rng.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bernoulli(p) {
				b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	return b.Build()
}

// GNM returns a uniform random graph with exactly m distinct edges (m capped
// at C(n,2)).
func GNM(n, m int, r *rng.Rand) *graph.Graph {
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		m = maxEdges
	}
	b := graph.NewBuilder(n)
	seen := make(map[graph.EdgeKey]struct{}, m)
	for len(seen) < m {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		if u == v {
			continue
		}
		k := graph.KeyOf(u, v)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// BarabasiAlbert grows a preferential-attachment graph: it starts from a
// small clique of m+1 seed nodes and attaches every later node to m existing
// nodes chosen proportionally to degree. Produces the heavy-tailed degree
// distributions typical of OSNs.
func BarabasiAlbert(n, m int, r *rng.Rand) *graph.Graph {
	if m < 1 {
		m = 1
	}
	if n < m+1 {
		n = m + 1
	}
	b := graph.NewBuilder(n)
	// repeated holds each node once per unit of degree: uniform draws from
	// it implement preferential attachment.
	var repeated []graph.NodeID
	for i := graph.NodeID(0); int(i) <= m; i++ {
		for j := i + 1; int(j) <= m; j++ {
			b.AddEdge(i, j)
			repeated = append(repeated, i, j)
		}
	}
	targets := make(map[graph.NodeID]struct{}, m)
	order := make([]graph.NodeID, 0, m)
	for v := m + 1; v < n; v++ {
		for k := range targets {
			delete(targets, k)
		}
		// Record targets in draw order, not map-iteration order: appending
		// to `repeated` in map order would make the remaining growth — and
		// therefore the whole graph — vary run to run for a fixed seed.
		order = order[:0]
		for len(targets) < m {
			t := rng.Choice(r, repeated)
			if _, dup := targets[t]; dup {
				continue
			}
			targets[t] = struct{}{}
			order = append(order, t)
		}
		for _, t := range order {
			b.AddEdge(graph.NodeID(v), t)
			repeated = append(repeated, graph.NodeID(v), t)
		}
	}
	return b.Build()
}

// WattsStrogatz returns a small-world graph: a ring lattice where each node
// connects to its k nearest neighbors (k even), with each edge rewired to a
// random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, r *rng.Rand) *graph.Graph {
	if k%2 != 0 {
		k--
	}
	if k < 2 {
		k = 2
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for d := 1; d <= k/2; d++ {
			j := (i + d) % n
			if r.Bernoulli(beta) {
				// Rewire to a uniform non-self target; duplicates are
				// deduplicated by the builder.
				j = r.Intn(n)
				for j == i {
					j = r.Intn(n)
				}
			}
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return b.Build()
}

// PlantedPartition returns a graph of `parts` equal blocks of size
// `blockSize` with within-block edge probability pIn and cross-block
// probability pOut — the textbook low-conductance family.
func PlantedPartition(parts, blockSize int, pIn, pOut float64, r *rng.Rand) *graph.Graph {
	n := parts * blockSize
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pOut
			if i/blockSize == j/blockSize {
				p = pIn
			}
			if r.Bernoulli(p) {
				b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	return b.Build()
}

// Connect adds the minimum number of edges needed to make g connected (one
// per extra component, each from a random node of that component to a random
// node of the largest component) and returns the connected graph. Random
// models occasionally leave stragglers; the samplers need one component to
// roam.
func Connect(g *graph.Graph, r *rng.Rand) *graph.Graph {
	labels, count := g.ConnectedComponents()
	if count <= 1 {
		return g
	}
	members := make([][]graph.NodeID, count)
	for u, l := range labels {
		members[l] = append(members[l], graph.NodeID(u))
	}
	giant := 0
	for c := range members {
		if len(members[c]) > len(members[giant]) {
			giant = c
		}
	}
	extra := make([]graph.Edge, 0, count-1)
	for c := range members {
		if c == giant {
			continue
		}
		extra = append(extra, graph.Edge{U: rng.Choice(r, members[c]), V: rng.Choice(r, members[giant])})
	}
	return g.WithEdges(extra)
}
