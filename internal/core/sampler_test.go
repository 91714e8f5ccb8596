package core

import (
	"testing"

	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/spectral"
	"rewire/internal/stats"
	"rewire/internal/walk"
)

func TestSamplerImprovesBarbellConductance(t *testing.T) {
	// The running example (§II–III): rewiring must raise the barbell's
	// conductance. Paper: 0.018 -> 0.053 (removal) -> 0.105 (both).
	g := gen.Barbell(11)
	phi0, _, err := spectral.ExactConductance(g)
	if err != nil {
		t.Fatal(err)
	}
	improvedRM, improvedBoth := 0, 0
	const trials = 5
	for seed := uint64(1); seed <= trials; seed++ {
		s := NewSampler(g, 0, RemovalOnlyConfig(), rng.New(seed))
		if _, ok := WalkToCoverage(s, g.NumNodes(), 100000); !ok {
			t.Fatalf("seed %d: no coverage", seed)
		}
		ovRM := s.Overlay().Materialize(g.NumNodes())
		if !ovRM.IsConnected() {
			t.Fatalf("seed %d: removal disconnected the overlay", seed)
		}
		phiRM, _, err := spectral.ExactConductance(ovRM)
		if err != nil {
			t.Fatal(err)
		}
		if phiRM > phi0 {
			improvedRM++
		}

		s2 := NewSampler(g, 0, DefaultConfig(), rng.New(seed))
		if _, ok := WalkToCoverage(s2, g.NumNodes(), 100000); !ok {
			t.Fatalf("seed %d: no coverage (both)", seed)
		}
		ovBoth := s2.Overlay().Materialize(g.NumNodes())
		if !ovBoth.IsConnected() {
			t.Fatalf("seed %d: rewiring disconnected the overlay", seed)
		}
		phiBoth, _, err := spectral.ExactConductance(ovBoth)
		if err != nil {
			t.Fatal(err)
		}
		if phiBoth > phi0 {
			improvedBoth++
		}
	}
	if improvedRM != trials {
		t.Errorf("removal improved conductance in %d/%d trials", improvedRM, trials)
	}
	if improvedBoth != trials {
		t.Errorf("full MTO improved conductance in %d/%d trials", improvedBoth, trials)
	}
}

func TestSamplerRemovesAggressivelyUnderEvalOriginal(t *testing.T) {
	g := gen.Barbell(11)
	s := NewSampler(g, 0, RemovalOnlyConfig(), rng.New(3))
	WalkToCoverage(s, g.NumNodes(), 100000)
	// On the barbell the aggressive mode thins each clique hard.
	if orig := s.Stats().Removals; orig < 50 {
		t.Errorf("EvalOriginal removed only %d edges", orig)
	}
}

func TestSamplerNeverStrandsNodes(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g := gen.EpinionsLikeSmall(seed)
		s := NewSampler(g, 0, DefaultConfig(), rng.New(seed))
		for i := 0; i < 20000; i++ {
			s.Step()
		}
		ov := s.Overlay().Materialize(g.NumNodes())
		if ov.MinDegree() < 1 {
			t.Fatalf("seed %d: rewiring stranded a node", seed)
		}
		if !ov.IsConnected() {
			t.Fatalf("seed %d: rewiring disconnected the graph", seed)
		}
	}
}

func TestSamplerStationaryMatchesOverlayDegrees(t *testing.T) {
	// After the topology stabilizes, the MTO walk is an SRW on the overlay,
	// so visits should be proportional to overlay degree. The social graph
	// runs the paper's full configuration: each pivot hosts one replacement
	// at most, so its overlay settles too.
	social, err := gen.Social(gen.SocialConfig{Nodes: 120, TargetEdges: 480}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		g             *graph.Graph
		cfg           Config
		burn, observe int
	}{
		{"barbell/removal-only", gen.Barbell(8), RemovalOnlyConfig(), 50000, 400000},
		{"social/default", social, DefaultConfig(), 100000, 600000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			s := NewSampler(g, 0, tc.cfg, rng.New(5))
			WalkToCoverage(s, g.NumNodes(), 50000)
			// Burn a while so remaining rewiring happens.
			for i := 0; i < tc.burn; i++ {
				s.Step()
			}
			before := s.Stats()
			h := stats.NewCountHistogram(g.NumNodes())
			for i := 0; i < tc.observe; i++ {
				h.Observe(int(s.Step()))
			}
			if after := s.Stats(); after.Removals != before.Removals || after.Replacements != before.Replacements {
				t.Fatalf("overlay still rewiring after burn-in: %+v -> %+v", before, after)
			}
			ov := s.Overlay().Materialize(g.NumNodes())
			want := make([]float64, g.NumNodes())
			for u := range want {
				want[u] = float64(ov.Degree(graph.NodeID(u)))
			}
			if tv, err := stats.TotalVariation(h.Distribution(), want); err != nil || tv > 0.03 {
				t.Errorf("TV distance from overlay-degree distribution = %v", tv)
			}
		})
	}
}

// TestSamplerFirstStepUniformOverSurvivingEdges pins the move distribution of
// one step. Hub 0 forms a clique with a1..a4, and b1..b4 each join 0, every
// a and 20 leaves of their own. Every edge (0, a) shares all of 0's other
// neighbors and fires Theorem 3; every edge (0, b) has a 25-degree endpoint
// and survives; 0's degree floor admits all four removals. So from a fresh
// overlay the first step must land on a b, uniformly.
func TestSamplerFirstStepUniformOverSurvivingEdges(t *testing.T) {
	const hub, na, nb, leaves = 0, 4, 4, 20
	a := func(i int) graph.NodeID { return graph.NodeID(1 + i) }
	b := func(i int) graph.NodeID { return graph.NodeID(1 + na + i) }
	var edges []graph.Edge
	for i := 0; i < na; i++ {
		edges = append(edges, graph.Edge{U: hub, V: a(i)})
		for j := i + 1; j < na; j++ {
			edges = append(edges, graph.Edge{U: a(i), V: a(j)})
		}
	}
	next := graph.NodeID(1 + na + nb)
	for i := 0; i < nb; i++ {
		edges = append(edges, graph.Edge{U: hub, V: b(i)})
		for j := 0; j < na; j++ {
			edges = append(edges, graph.Edge{U: a(j), V: b(i)})
		}
		for l := 0; l < leaves; l++ {
			edges = append(edges, graph.Edge{U: b(i), V: next})
			next++
		}
	}
	g := graph.FromEdges(int(next), edges)

	const trials = 8000
	counts := make([]float64, nb)
	var removals int64
	for seed := uint64(1); seed <= trials; seed++ {
		s := NewSampler(g, hub, RemovalOnlyConfig(), rng.New(seed))
		v := s.Step()
		if v < b(0) || v > b(nb-1) {
			t.Fatalf("seed %d: first step landed on %d, whose edge fires", seed, v)
		}
		counts[v-b(0)]++
		removals += s.Stats().Removals
	}
	if removals == 0 {
		t.Fatal("no removal fired: the hub has no firing edges")
	}
	// χ² against uniform, 3 degrees of freedom: 16.27 is the 0.999 quantile.
	chi2 := 0.0
	for _, c := range counts {
		d := c - trials/nb
		chi2 += d * d / (trials / nb)
	}
	if chi2 > 16.27 {
		t.Errorf("first-step landings %v are not uniform over the surviving edges (χ² = %.2f)", counts, chi2)
	}
}

// TestSamplerQueriesOnlyMovesAndRemovals: a step re-picks only after the
// criterion fires, so without removal every step examines exactly one edge,
// and on a cold client a single removal-only walker pays one query for the
// start, one per step it moves on and one per removal. The graph has average
// degree 20 and the walk is short, so most picks are new users and a
// discarded pick would show in the bill.
func TestSamplerQueriesOnlyMovesAndRemovals(t *testing.T) {
	g, err := gen.Social(gen.SocialConfig{Nodes: 8000, TargetEdges: 80000}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(g, 0, ReplacementOnlyConfig(), rng.New(3))
	for i := 0; i < 2000; i++ {
		s.Step()
	}
	if st := s.Stats(); st.Examined != st.Steps {
		t.Errorf("without removal: examined %d edges in %d steps, want one per step", st.Examined, st.Steps)
	}

	client := osn.NewClient(osn.NewService(g, nil, osn.Config{}))
	s = NewSampler(client, 0, RemovalOnlyConfig(), rng.New(3))
	for i := 0; i < 200; i++ {
		s.Step()
	}
	st := s.Stats()
	if st.Removals == 0 {
		t.Fatal("no removals: the bound below would not cover re-picks")
	}
	if q := client.UniqueQueries(); q > st.Steps+st.Removals+1 {
		t.Errorf("unique queries %d exceed steps %d + removals %d + 1", q, st.Steps, st.Removals)
	}
}

func TestSamplerQueryCostBounded(t *testing.T) {
	g := gen.EpinionsLikeSmall(7)
	svc := osn.NewService(g, nil, osn.Config{})
	client := osn.NewClient(svc)
	s := NewSampler(client, 0, DefaultConfig(), rng.New(7))
	for i := 0; i < 5000; i++ {
		s.Step()
	}
	if client.UniqueQueries() > int64(g.NumNodes()) {
		t.Errorf("unique queries %d exceed node count %d", client.UniqueQueries(), g.NumNodes())
	}
	if client.UniqueQueries() == 0 {
		t.Error("no queries issued")
	}
}

func TestSamplerTheorem5UsesClientCache(t *testing.T) {
	// A configuration only the extension can crack: u=0 and v=1 share the
	// degree-2 common neighbors w1=2 and w2=3 and have degree 5 each.
	// Theorem 3 on (0,1): 2*(⌈2/2⌉+1) = 4 > 5 fails. Theorem 5 once w1, w2
	// are cached: 2 + (4-2)+(4-2) = 6 > 5 fires. No other edge in the graph
	// is removable at all, so the removal counter isolates the extension.
	g := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3},
		{U: 0, V: 4}, {U: 0, V: 5}, {U: 1, V: 6}, {U: 1, V: 7},
	})
	run := func(useExt bool) (int64, bool) {
		svc := osn.NewService(g, nil, osn.Config{})
		client := osn.NewClient(svc)
		cfg := RemovalOnlyConfig()
		cfg.UseExtended = useExt
		s := NewSampler(client, 2, cfg, rng.New(11))
		for i := 0; i < 3000; i++ {
			s.Step()
		}
		return s.Stats().Removals, s.Overlay().Removed(0, 1)
	}
	removals, gone := run(true)
	if removals != 1 || !gone {
		t.Errorf("with extension: removals=%d removed(0,1)=%v, want 1/true", removals, gone)
	}
	if removals, gone := run(false); removals != 0 || gone {
		t.Errorf("without extension: removals=%d removed(0,1)=%v, want 0/false", removals, gone)
	}
}

func TestReplacementMechanics(t *testing.T) {
	// A 3-star: hub 0 with leaves 1,2,3 — every walk position at a leaf sees
	// pivot 0 with degree 3 and two replacement options. Replacement should
	// fire quickly and create a leaf-leaf edge.
	g := gen.Star(4)
	cfg := DefaultConfig()
	cfg.EnableRemoval = false
	s := NewSampler(g, 1, cfg, rng.New(13))
	for i := 0; i < 100 && s.Stats().Replacements == 0; i++ {
		s.Step()
	}
	if s.Stats().Replacements == 0 {
		t.Fatal("no replacement on a 3-star in 100 steps")
	}
	ov := s.Overlay().Materialize(g.NumNodes())
	if ov.NumEdges() != 3 {
		t.Errorf("replacement changed edge count: %d", ov.NumEdges())
	}
	if !ov.IsConnected() {
		t.Error("replacement disconnected the star")
	}
}

func TestReplacementSkipsExistingEdges(t *testing.T) {
	// K4: every node has degree 3, but all candidate edges already exist,
	// so no replacement is licensed and the topology must stay K4.
	g := gen.Complete(4)
	cfg := DefaultConfig()
	cfg.EnableRemoval = false
	s := NewSampler(g, 0, cfg, rng.New(17))
	for i := 0; i < 2000; i++ {
		s.Step()
	}
	if s.Stats().Replacements != 0 {
		t.Errorf("replacements on K4 = %d, want 0", s.Stats().Replacements)
	}
}

func TestWeightModes(t *testing.T) {
	g := gen.Barbell(8)
	for _, mode := range []WeightMode{WeightOverlayDegree, WeightExact, WeightSampled} {
		cfg := RemovalOnlyConfig()
		cfg.Weights = mode
		s := NewSampler(g, 0, cfg, rng.New(19))
		WalkToCoverage(s, g.NumNodes(), 50000)
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			w := s.StationaryWeight(v)
			if w < 1 {
				t.Errorf("mode %v node %d: weight %v < 1", mode, v, w)
			}
			if w > float64(g.Degree(v)) {
				t.Errorf("mode %v node %d: weight %v exceeds base degree %d", mode, v, w, g.Degree(v))
			}
		}
	}
}

func TestWeightExactMatchesMaterializedDegree(t *testing.T) {
	g := gen.Barbell(8)
	cfg := RemovalOnlyConfig()
	cfg.Weights = WeightExact
	s := NewSampler(g, 0, cfg, rng.New(23))
	WalkToCoverage(s, g.NumNodes(), 50000)
	// Exact classification removes whatever is removable right now, so a
	// second call must agree with the materialized overlay.
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		s.StationaryWeight(v) // classification pass
	}
	ov := s.Overlay().Materialize(g.NumNodes())
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if got := s.StationaryWeight(v); got != float64(ov.Degree(v)) {
			t.Errorf("node %d: exact weight %v vs overlay degree %d", v, got, ov.Degree(v))
		}
	}
}

func TestWalkToCoverage(t *testing.T) {
	g := gen.Cycle(30)
	s := NewSampler(g, 0, DefaultConfig(), rng.New(29))
	visited, ok := WalkToCoverage(s, g.NumNodes(), 100000)
	if !ok || visited != 30 {
		t.Errorf("coverage = %d/%v", visited, ok)
	}
	s2 := NewSampler(g, 0, DefaultConfig(), rng.New(29))
	if _, ok := WalkToCoverage(s2, g.NumNodes(), 3); ok {
		t.Error("3 steps cannot cover a 30-cycle")
	}
}

func TestSamplerIsolatedStart(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 1, V: 2}})
	s := NewSampler(g, 0, DefaultConfig(), rng.New(31))
	if got := s.Step(); got != 0 {
		t.Errorf("isolated start moved to %d", got)
	}
}

func TestSamplerInterfaceCompliance(t *testing.T) {
	var _ walk.Walker = (*Sampler)(nil)
	var _ walk.Source = (*Overlay)(nil)
}
