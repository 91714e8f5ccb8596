package core

import (
	"testing"

	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/rng"
	"rewire/internal/spectral"
)

func TestDegreeFloorLimitsDraining(t *testing.T) {
	// Without the floor, iterated removal+replacement drains the barbell
	// toward a (bipartite) near-tree; with the default 0.3 floor every node
	// keeps >= ceil(0.3 * original degree) overlay neighbors.
	g := gen.Barbell(11)
	s := NewSampler(g, 0, DefaultConfig(), rng.New(3))
	for i := 0; i < 100000; i++ {
		s.Step()
	}
	ov := s.Overlay().Materialize(g.NumNodes())
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		floor := floorFor(g.Degree(v))
		// Replacement can shift one more edge away from a node after
		// removal stopped, so allow slack of one below the removal floor.
		if ov.Degree(v) < floor-1 {
			t.Errorf("node %d: overlay degree %d below floor %d", v, ov.Degree(v), floor)
		}
	}
	// The drained-tree pathology specifically: the overlay must keep
	// substantially more than a spanning tree and still mix.
	if ov.NumEdges() < g.NumNodes()+5 {
		t.Errorf("overlay has only %d edges — drained to a near-tree", ov.NumEdges())
	}
	mt, err := spectral.GraphMixingTime(ov)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := spectral.GraphMixingTime(g)
	if mt >= orig {
		t.Errorf("overlay mixing %v not below original %v", mt, orig)
	}
}

func TestPivotOnceBoundsReplacements(t *testing.T) {
	// Each pivot hosts at most one replacement, which keeps total rewiring
	// O(|V|) however long the walk runs: every replacement claims a pivot
	// no earlier one used.
	g := gen.EpinionsLikeSmall(5)
	s := NewSampler(g, 0, DefaultConfig(), rng.New(7))
	for i := 0; i < 300000; i++ {
		s.Step()
	}
	_, _, pivots := s.Overlay().Delta()
	if n := s.Stats().Replacements; n == 0 || n != int64(len(pivots)) {
		t.Errorf("%d replacements over %d distinct pivots", n, len(pivots))
	}
}

func TestReplacementChurnStopsWithPivotOnce(t *testing.T) {
	// After a long run, the rewiring rate must approach zero so the chain
	// becomes stationary (this is what lets Geweke fire for MTO).
	g := gen.EpinionsLikeSmall(9)
	s := NewSampler(g, 0, DefaultConfig(), rng.New(11))
	for i := 0; i < 400000; i++ {
		s.Step()
	}
	before := s.Stats()
	for i := 0; i < 50000; i++ {
		s.Step()
	}
	after := s.Stats()
	mutations := (after.Removals - before.Removals) + (after.Replacements - before.Replacements)
	// Allow stragglers but not sustained churn (~1 per 1000 steps max).
	if mutations > 50 {
		t.Errorf("late-run mutations = %d in 50k steps; topology is not settling", mutations)
	}
}
