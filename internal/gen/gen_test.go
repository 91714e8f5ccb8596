package gen

import (
	"math"
	"testing"
	"time"

	"rewire/internal/graph"
	"rewire/internal/rng"
)

func mustValidate(t *testing.T, g *graph.Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBarbellRunningExample(t *testing.T) {
	g := Barbell(11)
	mustValidate(t, g)
	if g.NumNodes() != 22 {
		t.Errorf("nodes = %d, want 22", g.NumNodes())
	}
	if g.NumEdges() != 111 {
		t.Errorf("edges = %d, want 111 (paper running example)", g.NumEdges())
	}
	// Bridge endpoints have degree 11, everyone else 10.
	for u := graph.NodeID(0); u < 22; u++ {
		want := 10
		if u == 0 || u == 11 {
			want = 11
		}
		if got := g.Degree(u); got != want {
			t.Errorf("degree(%d) = %d, want %d", u, got, want)
		}
	}
	if !g.HasEdge(0, 11) {
		t.Error("missing bridge edge")
	}
}

func TestDeterministicShapes(t *testing.T) {
	cases := []struct {
		name         string
		g            *graph.Graph
		nodes, edges int
	}{
		{"K5", Complete(5), 5, 10},
		{"C7", Cycle(7), 7, 7},
		{"P6", Path(6), 6, 5},
		{"Star9", Star(9), 9, 8},
		{"Grid3x4", Grid(3, 4), 12, 17},
		{"Lollipop5+3", Lollipop(5, 3), 8, 13},
	}
	for _, c := range cases {
		mustValidate(t, c.g)
		if c.g.NumNodes() != c.nodes || c.g.NumEdges() != c.edges {
			t.Errorf("%s: %d nodes %d edges, want %d/%d",
				c.name, c.g.NumNodes(), c.g.NumEdges(), c.nodes, c.edges)
		}
		if !c.g.IsConnected() {
			t.Errorf("%s: not connected", c.name)
		}
	}
}

func TestGNPEdgeCount(t *testing.T) {
	r := rng.New(1)
	g := GNP(100, 0.1, r)
	mustValidate(t, g)
	want := 0.1 * 100 * 99 / 2
	if math.Abs(float64(g.NumEdges())-want) > 4*math.Sqrt(want) {
		t.Errorf("G(100,0.1) edges = %d, want ~%v", g.NumEdges(), want)
	}
}

func TestGNMExactCount(t *testing.T) {
	r := rng.New(2)
	g := GNM(50, 200, r)
	mustValidate(t, g)
	if g.NumEdges() != 200 {
		t.Errorf("GNM edges = %d, want 200", g.NumEdges())
	}
	// Capped at complete graph.
	g2 := GNM(5, 100, r)
	if g2.NumEdges() != 10 {
		t.Errorf("capped GNM edges = %d, want 10", g2.NumEdges())
	}
}

func TestBarabasiAlbert(t *testing.T) {
	r := rng.New(3)
	g := BarabasiAlbert(500, 3, r)
	mustValidate(t, g)
	if g.NumNodes() != 500 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Edges = C(4,2) + 3*(500-4) = 6 + 1488.
	if g.NumEdges() != 1494 {
		t.Errorf("edges = %d, want 1494", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("BA graph should be connected")
	}
	if g.MaxDegree() < 20 {
		t.Errorf("max degree %d suspiciously small for preferential attachment", g.MaxDegree())
	}
}

func TestWattsStrogatz(t *testing.T) {
	r := rng.New(4)
	g := WattsStrogatz(200, 6, 0.1, r)
	mustValidate(t, g)
	if g.NumNodes() != 200 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Rewiring can deduplicate a few edges; allow slack below 600.
	if g.NumEdges() < 570 || g.NumEdges() > 600 {
		t.Errorf("edges = %d, want ~600", g.NumEdges())
	}
	// beta=0 is the exact ring lattice.
	ring := WattsStrogatz(50, 4, 0, rng.New(5))
	if ring.NumEdges() != 100 {
		t.Errorf("ring lattice edges = %d, want 100", ring.NumEdges())
	}
	for u := graph.NodeID(0); u < 50; u++ {
		if ring.Degree(u) != 4 {
			t.Fatalf("ring degree(%d) = %d, want 4", u, ring.Degree(u))
		}
	}
}

func TestPlantedPartition(t *testing.T) {
	r := rng.New(6)
	g := PlantedPartition(4, 25, 0.4, 0.01, r)
	mustValidate(t, g)
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Count intra vs inter edges.
	intra, inter := 0, 0
	for _, e := range g.Edges() {
		if int(e.U)/25 == int(e.V)/25 {
			intra++
		} else {
			inter++
		}
	}
	if intra < 8*inter {
		t.Errorf("intra %d vs inter %d: expected strong community structure", intra, inter)
	}
}

func TestConnect(t *testing.T) {
	r := rng.New(7)
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	c := Connect(g, r)
	if !c.IsConnected() {
		t.Fatal("Connect left graph disconnected")
	}
	// 2 extra components (node 5 isolated, {3,4}) -> exactly 2 added edges.
	if c.NumEdges() != g.NumEdges()+2 {
		t.Errorf("edges = %d, want %d", c.NumEdges(), g.NumEdges()+2)
	}
	// Already connected graphs pass through untouched.
	k := Complete(4)
	if got := Connect(k, r); got != k {
		t.Error("Connect should return connected input unchanged")
	}
}

func TestPowerLawDegrees(t *testing.T) {
	r := rng.New(8)
	n, m := 2000, 8000
	ks := PowerLawDegrees(n, m, 2.3, 3, 200, r)
	if len(ks) != n {
		t.Fatalf("len = %d", len(ks))
	}
	sum := 0
	minK, maxK := ks[0], ks[0]
	for _, k := range ks {
		sum += k
		if k < minK {
			minK = k
		}
		if k > maxK {
			maxK = k
		}
	}
	if sum != 2*m {
		t.Errorf("degree sum = %d, want %d", sum, 2*m)
	}
	if minK < 3 || maxK > 200 {
		t.Errorf("degrees out of [3,200]: min %d max %d", minK, maxK)
	}
	if maxK < 30 {
		t.Errorf("max degree %d: heavy tail missing", maxK)
	}
}

func TestSocialModel(t *testing.T) {
	r := rng.New(9)
	cfg := SocialConfig{Nodes: 3000, TargetEdges: 12000}
	g, err := Social(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, g)
	if g.NumNodes() != 3000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if rel := math.Abs(float64(g.NumEdges())-12000) / 12000; rel > 0.05 {
		t.Errorf("edges = %d, want 12000 ±5%%", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("social graph should be connected after Connect step")
	}
	// The whole point of the model: dense pockets => high clustering.
	cc := g.AverageClustering(1000, rng.New(10))
	if cc < 0.25 {
		t.Errorf("average clustering %v: too low for the MTO regime", cc)
	}
	// Heavy tail sanity.
	if g.MaxDegree() < 40 {
		t.Errorf("max degree %d: tail missing", g.MaxDegree())
	}
}

func TestSocialModelErrors(t *testing.T) {
	r := rng.New(11)
	if _, err := Social(SocialConfig{Nodes: 3, TargetEdges: 3}, r); err == nil {
		t.Error("tiny graph should error")
	}
	if _, err := Social(SocialConfig{Nodes: 100, TargetEdges: 10}, r); err == nil {
		t.Error("too few edges should error")
	}
	if _, err := Social(SocialConfig{Nodes: 100, TargetEdges: 1e6}, r); err == nil {
		t.Error("too many edges should error")
	}
}

func TestSocialDeterministicBySeed(t *testing.T) {
	cfg := SocialConfig{Nodes: 500, TargetEdges: 2000}
	a, err := Social(cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Social(cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e.U, e.V) {
			t.Fatalf("same seed, edge %v missing in second build", e)
		}
	}
}

// BenchmarkSocial times one Social build at durable-crawl's degree regime
// (mean degree 40) at 1/10 of its size.
func BenchmarkSocial(b *testing.B) {
	cfg := SocialConfig{Nodes: 20000, TargetEdges: 400000}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Social(cfg, rng.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLatentSpace(t *testing.T) {
	cfg := PaperLatentConfig(80)
	g, pts, err := LatentSpace(cfg, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, g)
	if g.NumNodes() != 80 || len(pts) != 80 {
		t.Fatalf("nodes = %d, points = %d", g.NumNodes(), len(pts))
	}
	// Hard threshold: every edge has distance < r, every non-edge >= r.
	for i := 0; i < 80; i++ {
		for j := i + 1; j < 80; j++ {
			d := euclid(pts[i], pts[j])
			if g.HasEdge(graph.NodeID(i), graph.NodeID(j)) != (d < 0.7) {
				t.Fatalf("edge (%d,%d) inconsistent with distance %v", i, j, d)
			}
		}
	}
	// Points inside the box.
	for _, p := range pts {
		if p[0] < 0 || p[0] > 4 || p[1] < 0 || p[1] > 5 {
			t.Fatalf("point %v outside [0,4]x[0,5]", p)
		}
	}
}

func TestLatentSpaceSoftAlpha(t *testing.T) {
	cfg := LatentSpaceConfig{N: 60, Lengths: []float64{4, 5}, R: 0.7, Alpha: 4}
	g, _, err := LatentSpace(cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, g)
	if g.NumEdges() == 0 {
		t.Error("soft latent graph has no edges")
	}
}

func TestConnectProbability(t *testing.T) {
	inf := math.Inf(1)
	if ConnectProbability(0.5, 0.7, inf) != 1 {
		t.Error("d<r with alpha=inf should be 1")
	}
	if ConnectProbability(0.9, 0.7, inf) != 0 {
		t.Error("d>r with alpha=inf should be 0")
	}
	if p := ConnectProbability(0.7, 0.7, 4); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("d=r gives %v, want 0.5", p)
	}
	if ConnectProbability(0.1, 0.7, 4) <= ConnectProbability(1.2, 0.7, 4) {
		t.Error("probability should decrease with distance")
	}
}

func TestLatentSpaceErrors(t *testing.T) {
	r := rng.New(14)
	if _, _, err := LatentSpace(LatentSpaceConfig{N: 0, Lengths: []float64{1}, R: 1}, r); err == nil {
		t.Error("N=0 should error")
	}
	if _, _, err := LatentSpace(LatentSpaceConfig{N: 5, R: 1}, r); err == nil {
		t.Error("no dims should error")
	}
	if _, _, err := LatentSpace(LatentSpaceConfig{N: 5, Lengths: []float64{1}, R: 0}, r); err == nil {
		t.Error("R=0 should error")
	}
}

func TestSmallPresets(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"epinions-small": EpinionsLikeSmall(1),
		"slashdot-small": SlashdotLikeSmall(1),
	} {
		mustValidate(t, g)
		if !g.IsConnected() {
			t.Errorf("%s disconnected", name)
		}
		if g.AverageDegree() < 4 {
			t.Errorf("%s average degree %v too low", name, g.AverageDegree())
		}
	}
}

func TestDirectedTrust(t *testing.T) {
	r := rng.New(15)
	mutual := EpinionsLikeSmall(2)
	d := DirectedTrust(mutual, 5000, r)
	if d.NumArcs() != 2*mutual.NumEdges()+5000 {
		t.Fatalf("arcs = %d, want %d", d.NumArcs(), 2*mutual.NumEdges()+5000)
	}
	// Reciprocal conversion recovers exactly the mutual graph — the paper's
	// §V-A.2 guarantee.
	back := d.Reciprocal()
	if back.NumEdges() != mutual.NumEdges() {
		t.Fatalf("reciprocal edges = %d, want %d", back.NumEdges(), mutual.NumEdges())
	}
	for _, e := range mutual.Edges() {
		if !back.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v lost in round trip", e)
		}
	}
}

func TestLocalClustering(t *testing.T) {
	k := Complete(5)
	if got := k.LocalClustering(0); got != 1 {
		t.Errorf("clique clustering = %v, want 1", got)
	}
	s := Star(6)
	if got := s.LocalClustering(0); got != 0 {
		t.Errorf("star hub clustering = %v, want 0", got)
	}
	if got := s.AverageClustering(100, rng.New(1)); got != 0 {
		t.Errorf("star average clustering = %v, want 0", got)
	}
}

// TestSocialInfeasibleDegreeTarget pins that a degree target outside
// [MinDegree, MaxDegree] is an error, returned at once: the degree
// sequence's nudge loop used to spin on it forever. The deadline makes a
// hang fail instead of stalling the suite.
func TestSocialInfeasibleDegreeTarget(t *testing.T) {
	for _, cfg := range []SocialConfig{
		{Nodes: 50000, TargetEdges: 50000},               // mean degree 2 < MinDegree 3
		{Nodes: 1000, TargetEdges: 10000, MaxDegree: 10}, // mean degree 20 > MaxDegree
	} {
		done := make(chan error, 1)
		go func() {
			_, err := Social(cfg, rng.New(1))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("Social(%+v) succeeded, want an error", cfg)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Social(%+v) still running after 5 s", cfg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("PowerLawDegrees with an unreachable sum did not panic")
		}
	}()
	PowerLawDegrees(100, 100, 2.3, 3, 10, rng.New(1))
}
