package rewire

import (
	"fmt"
	"io"
	"os"

	"rewire/internal/dataset"
	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/rng"
	"rewire/internal/spectral"
	"rewire/internal/stats"
)

// NodeID identifies a user. IDs are dense: a network with N users has IDs
// 0..N-1, matching how the paper's restrictive interface exposes them.
type NodeID = graph.NodeID

// Graph is an immutable in-memory social graph with sorted adjacency — the
// local-snapshot backend (and the substrate behind every simulated
// provider).
type Graph = graph.Graph

// NewGraph builds a graph over n nodes from an undirected edge list.
// Duplicate edges and self-loops are dropped; an endpoint outside [0, n)
// is reported as an error.
func NewGraph(n int, edges [][2]NodeID) (*Graph, error) {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if e[0] < 0 || e[1] < 0 || int(e[0]) >= n || int(e[1]) >= n {
			return nil, fmt.Errorf("rewire: edge (%d, %d) out of range [0, %d)", e[0], e[1], n)
		}
		b.AddEdge(e[0], e[1])
	}
	return b.Build(), nil
}

// ReadEdgeList parses a SNAP-style text edge list ('#' comments, "u v" or
// "u\tv" lines); the node count is max ID + 1.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return graph.ReadEdgeList(r, 0)
}

// ReadEdgeListFile reads an edge-list file from disk.
func ReadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f, 0)
}

// Barbell returns the paper's Fig 1 running example at clique size k: two
// k-cliques joined by one bridge edge — the canonical terrible-conductance
// topology the MTO-Sampler repairs.
func Barbell(k int) *Graph { return gen.Barbell(k) }

// SocialGraph generates a synthetic social network with roughly the given
// node and edge counts: community-structured, heavy-tailed, connected — the
// generator behind the preset datasets. A mean degree 2*edges/nodes below
// the generator's minimum degree of 3 is an error.
func SocialGraph(nodes, edges int, seed uint64) (*Graph, error) {
	return gen.Social(gen.SocialConfig{Nodes: nodes, TargetEdges: edges}, rng.New(seed))
}

// PresetGraph returns one of the paper's Table I stand-in datasets by name:
// "Epinions", "Slashdot A", "Slashdot B", or "Google Plus". full selects
// paper scale; false selects the fast reduced-scale variants the tests use.
// Generation is deterministic and cached process-wide; a call builds only
// the preset it names, on first use.
func PresetGraph(name string, full bool) (*Graph, error) {
	ds := dataset.ByName(name, full)
	if ds == nil {
		return nil, fmt.Errorf("rewire: unknown preset dataset %q", name)
	}
	return ds.Graph, nil
}

// Conductance returns the exact conductance Φ(G) of the graph (its hardest
// bottleneck cut), the quantity the paper's rewiring provably never
// decreases.
func Conductance(g *Graph) (float64, error) {
	phi, _, err := spectral.ExactConductance(g)
	return phi, err
}

// MixingTime returns the SLEM-based mixing time of the graph's lazy random
// walk — the paper's measure of how many steps a walk needs before samples
// are usable.
func MixingTime(g *Graph) (float64, error) {
	return spectral.GraphMixingTime(g)
}

// RelativeError returns |estimate - truth| / |truth|, the paper's error
// metric (0 when both are 0; +Inf when only the truth is).
func RelativeError(estimate, truth float64) float64 {
	return stats.RelativeError(estimate, truth)
}
