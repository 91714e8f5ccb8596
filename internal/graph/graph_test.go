package graph

import (
	"reflect"
	"testing"
	"testing/quick"

	"rewire/internal/rng"
)

// triangle plus a pendant: 0-1, 0-2, 1-2, 2-3
func testGraph() *Graph {
	return FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
}

func TestBuilderBasics(t *testing.T) {
	g := testGraph()
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	wantDeg := []int{2, 2, 3, 1}
	for u, want := range wantDeg {
		if got := g.Degree(NodeID(u)); got != want {
			t.Errorf("Degree(%d) = %d, want %d", u, got, want)
		}
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderMatchesSortedRows checks Build's two-pass counting sort against
// the comparison-sort path of NewFromAdjacency on a random multigraph with
// duplicates and self-loops, with the pair list grown by append (Build copies
// the rows off its slack) and pre-sized by Grow (Build keeps its array).
func TestBuilderMatchesSortedRows(t *testing.T) {
	for _, grow := range []bool{false, true} {
		r := rng.New(5)
		const n, m = 50, 400
		b := NewBuilder(n)
		if grow {
			b.Grow(m)
		}
		adj := make([][]NodeID, n)
		for i := 0; i < m; i++ {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			b.AddEdge(u, v)
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
		got, want := b.Build(), NewFromAdjacency(adj)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("grow=%v: Build differs from sorted adjacency: %d vs %d edges", grow, got.NumEdges(), want.NumEdges())
		}
	}
}

func TestWithEdges(t *testing.T) {
	g := testGraph()
	extra := []Edge{{3, 0}, {0, 1}, {0, 3}, {1, 1}} // new, present, repeated, self-loop
	got := g.WithEdges(extra)
	if want := FromEdges(4, append(g.Edges(), extra...)); !reflect.DeepEqual(got, want) {
		t.Fatalf("WithEdges = %v, want %v", got.Edges(), want.Edges())
	}
	if got.NumEdges() != 5 {
		t.Errorf("NumEdges = %d, want 5", got.NumEdges())
	}
	if g.NumEdges() != 4 || g.HasEdge(0, 3) {
		t.Error("WithEdges modified its receiver")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestHasEdge(t *testing.T) {
	g := testGraph()
	cases := []struct {
		u, v NodeID
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {2, 3, true}, {3, 2, true},
		{0, 3, false}, {1, 3, false}, {0, 0, false},
		{-1, 0, false}, {0, 99, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := testGraph()
	want := []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
}

func TestEdgeKeyRoundTrip(t *testing.T) {
	check := func(a, b int16) bool {
		u, v := NodeID(abs16(a)), NodeID(abs16(b))
		k := KeyOf(u, v)
		x, y := k.Nodes()
		lo, hi := u, v
		if lo > hi {
			lo, hi = hi, lo
		}
		return x == lo && y == hi && k == KeyOf(v, u)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func abs16(x int16) int32 {
	v := int32(x)
	if v < 0 {
		return -v
	}
	return v
}

func TestCommonNeighbors(t *testing.T) {
	g := testGraph()
	if got := g.CommonNeighbors(0, 1); !reflect.DeepEqual(got, []NodeID{2}) {
		t.Errorf("CommonNeighbors(0,1) = %v, want [2]", got)
	}
	if got := g.CountCommonNeighbors(0, 1); got != 1 {
		t.Errorf("CountCommonNeighbors(0,1) = %d, want 1", got)
	}
	if got := g.CountCommonNeighbors(0, 3); got != 1 { // both adjacent to 2
		t.Errorf("CountCommonNeighbors(0,3) = %d, want 1", got)
	}
	if got := g.CommonNeighbors(2, 3); len(got) != 0 {
		t.Errorf("CommonNeighbors(2,3) = %v, want empty", got)
	}
}

func TestIntersectSortedProperty(t *testing.T) {
	check := func(aRaw, bRaw []uint8) bool {
		a := toSortedIDs(aRaw)
		b := toSortedIDs(bRaw)
		got := IntersectSorted(a, b)
		if CountIntersectSorted(a, b) != len(got) {
			return false
		}
		// Verify against map-based intersection.
		inA := map[NodeID]bool{}
		for _, x := range a {
			inA[x] = true
		}
		var want []NodeID
		for _, x := range b {
			if inA[x] {
				want = append(want, x)
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func toSortedIDs(raw []uint8) []NodeID {
	seen := map[NodeID]bool{}
	var out []NodeID
	for _, x := range raw {
		seen[NodeID(x)] = true
	}
	for x := NodeID(0); x < 256; x++ {
		if seen[x] {
			out = append(out, x)
		}
	}
	return out
}

func TestDegreeStats(t *testing.T) {
	g := testGraph()
	if got := g.DegreeSum(); got != 8 {
		t.Errorf("DegreeSum = %d, want 8", got)
	}
	if got := g.MinDegree(); got != 1 {
		t.Errorf("MinDegree = %d, want 1", got)
	}
	if got := g.MaxDegree(); got != 3 {
		t.Errorf("MaxDegree = %d, want 3", got)
	}
	if got := g.AverageDegree(); got != 2 {
		t.Errorf("AverageDegree = %v, want 2", got)
	}
	if got := g.DegreeHistogram(); !reflect.DeepEqual(got, []int{0, 1, 2, 1}) {
		t.Errorf("DegreeHistogram = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := testGraph()
	c := g.Clone()
	c.neigh[0] = 99 // reach into the clone's CSR storage
	c.offsets[1] = c.offsets[0]
	if g.Degree(0) != 2 || g.Neighbors(0)[0] == 99 {
		t.Error("mutating clone affected original")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBFS(t *testing.T) {
	g := testGraph()
	dist := g.BFS(3)
	want := []int32{2, 2, 1, 0}
	if !reflect.DeepEqual(dist, want) {
		t.Errorf("BFS(3) = %v, want %v", dist, want)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {2, 3}})
	dist := g.BFS(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable nodes should be -1: %v", dist)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {2, 3}})
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] || labels[4] == labels[0] || labels[4] == labels[2] {
		t.Errorf("labels = %v", labels)
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if !testGraph().IsConnected() {
		t.Error("connected graph reported disconnected")
	}
}

func TestLargestComponent(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	sub, ids := g.LargestComponent()
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("largest component has %d nodes %d edges", sub.NumNodes(), sub.NumEdges())
	}
	if !reflect.DeepEqual(ids, []NodeID{0, 1, 2}) {
		t.Errorf("ids = %v", ids)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Already-connected graph comes back unchanged.
	g2 := testGraph()
	sub2, ids2 := g2.LargestComponent()
	if sub2 != g2 || len(ids2) != 4 {
		t.Error("connected graph should be returned as-is")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := testGraph()
	sub, ids := g.InducedSubgraph(func(u NodeID) bool { return u != 2 })
	if sub.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", sub.NumNodes())
	}
	// Only edge 0-1 survives without node 2.
	if sub.NumEdges() != 1 || !sub.HasEdge(0, 1) {
		t.Errorf("unexpected edges: %v", sub.Edges())
	}
	if !reflect.DeepEqual(ids, []NodeID{0, 1, 3}) {
		t.Errorf("ids = %v", ids)
	}
}

func TestEccentricity(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}}) // path
	if got := g.Eccentricity(0); got != 3 {
		t.Errorf("Eccentricity(0) = %d, want 3", got)
	}
	if got := g.Eccentricity(1); got != 2 {
		t.Errorf("Eccentricity(1) = %d, want 2", got)
	}
}

func TestEffectiveDiameterPath(t *testing.T) {
	// Path of 11 nodes: distances 1..10, pair counts 10,9,...,1 each way.
	b := NewBuilder(11)
	for i := NodeID(0); i < 10; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	d := g.EffectiveDiameter(0.9, 1000, rng.New(1))
	// 90% of the 110 ordered pairs are within ~7.6 hops; accept a band.
	if d < 6.5 || d > 9 {
		t.Errorf("effective diameter = %v, want in [6.5, 9]", d)
	}
	// Full percentile returns the true diameter.
	if full := g.EffectiveDiameter(1.0, 1000, rng.New(1)); full != 10 {
		t.Errorf("100%% diameter = %v, want 10", full)
	}
}

func TestEffectiveDiameterComplete(t *testing.T) {
	b := NewBuilder(8)
	for i := NodeID(0); i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			b.AddEdge(i, j)
		}
	}
	g := b.Build()
	d := g.EffectiveDiameter(0.9, 100, rng.New(2))
	if d < 0 || d > 1 {
		t.Errorf("complete graph effective diameter = %v, want <= 1", d)
	}
}

func TestEffectiveDiameterEmptyAndIsolated(t *testing.T) {
	g := FromEdges(0, nil)
	if d := g.EffectiveDiameter(0.9, 10, rng.New(3)); d != 0 {
		t.Errorf("empty graph diameter = %v", d)
	}
	iso := FromEdges(3, nil)
	if d := iso.EffectiveDiameter(0.9, 10, rng.New(3)); d != 0 {
		t.Errorf("edgeless graph diameter = %v", d)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := &Graph{offsets: []uint32{0, 1, 1}, neigh: []NodeID{1}, edges: 1}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted asymmetric adjacency")
	}
}

func TestValidateCatchesSelfLoop(t *testing.T) {
	g := &Graph{offsets: []uint32{0, 1}, neigh: []NodeID{0}, edges: 0}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted self loop")
	}
}

func TestNewFromAdjacencyCleans(t *testing.T) {
	g := NewFromAdjacency([][]NodeID{{1, 1, 0}, {0}})
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
