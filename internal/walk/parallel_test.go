package walk_test

// Parallel walks: a fleet's members stepped round-robin through
// estimate.RunSession, the schedule Session.Estimate runs.

import (
	"testing"

	"rewire/internal/estimate"
	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/stats"
	"rewire/internal/walk"
)

// runParallel steps f's members round-robin for samples samples, calling
// observe on each sampled node in order, and returns the session result.
func runParallel(f *walk.Fleet, src walk.Source, cost estimate.CostFunc, samples int, observe func(graph.NodeID)) estimate.SessionResult {
	agg := estimate.Aggregate{Value: func(v graph.NodeID, _ int, _ estimate.Attrs) float64 {
		if observe != nil {
			observe(v)
		}
		return 1
	}}
	info := func(v graph.NodeID) (int, estimate.Attrs) { return src.Degree(v), estimate.Attrs{} }
	return estimate.RunSession(f.Members(), agg, info, cost, estimate.SessionConfig{Samples: samples})
}

func TestParallelRoundRobin(t *testing.T) {
	g := gen.Cycle(12)
	f := walk.NewFleetSimple(g, []graph.NodeID{0, 6}, rng.New(1))
	if len(f.Members()) != 2 {
		t.Fatalf("members = %d", len(f.Members()))
	}
	// Steps alternate between walkers started at 0 and 6; on a cycle each
	// stays within ±i of its origin after i of its own steps.
	var got []graph.NodeID
	runParallel(f, g, nil, 2, func(v graph.NodeID) { got = append(got, v) })
	if len(got) != 2 {
		t.Fatalf("drew %d samples, want 2", len(got))
	}
	if d0, d1 := cycleDist(got[0], 0, 12), cycleDist(got[1], 6, 12); d0 != 1 || d1 != 1 {
		t.Errorf("first steps landed at %d,%d", got[0], got[1])
	}
}

func cycleDist(a, b graph.NodeID, n int) int {
	d := int(a - b)
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

func TestParallelStationaryStillDegreeProportional(t *testing.T) {
	g := gen.Lollipop(6, 4)
	starts := []graph.NodeID{0, 3, 7, 9}
	f := walk.NewFleetSimple(g, starts, rng.New(2))
	h := stats.NewCountHistogram(g.NumNodes())
	runParallel(f, g, nil, 400000, func(v graph.NodeID) { h.Observe(int(v)) })
	want := make([]float64, g.NumNodes())
	for u := range want {
		want[u] = float64(g.Degree(graph.NodeID(u)))
	}
	if tv, err := stats.TotalVariation(h.Distribution(), want); err != nil || tv > 0.02 {
		t.Errorf("parallel SRW TV distance = %v", tv)
	}
}

func TestParallelSharesQueryBudget(t *testing.T) {
	g := gen.Barbell(8)
	svc := osn.NewService(g, nil, osn.Config{})
	client := osn.NewClient(svc)
	// Two members starting in the two different cliques share the cache.
	f := walk.NewFleetSimple(client, []graph.NodeID{0, 8}, rng.New(3))
	res := runParallel(f, client, client.UniqueQueries, 2000, nil)
	if res.FinalCost != client.UniqueQueries() {
		t.Errorf("session cost %d, client cost %d", res.FinalCost, client.UniqueQueries())
	}
	if client.UniqueQueries() > int64(g.NumNodes()) {
		t.Errorf("cost %d exceeds node count", client.UniqueQueries())
	}
	// Both cliques were explored: cost well above a single clique's size.
	if client.UniqueQueries() < 10 {
		t.Errorf("cost %d too small for two-clique coverage", client.UniqueQueries())
	}
}

// weighed records every weight read of the walker it wraps: the node, the
// position the walker stood on at that moment, and the weight returned.
type weighed struct {
	*walk.Simple
	reads []weightRead
}

type weightRead struct {
	v, cur graph.NodeID
	weight float64
}

func (w *weighed) StationaryWeight(v graph.NodeID) float64 {
	weight := w.Simple.StationaryWeight(v)
	w.reads = append(w.reads, weightRead{v: v, cur: w.Current(), weight: weight})
	return weight
}

func TestParallelWeightDelegation(t *testing.T) {
	g := gen.Star(6)
	r := rng.New(4)
	members := []*weighed{
		{Simple: walk.NewSimple(g, 1, r.Split())},
		{Simple: walk.NewSimple(g, 2, r.Split())},
	}
	var drawn []graph.NodeID
	runParallel(walk.NewFleet(members[0], members[1]), g, nil, 2, func(v graph.NodeID) { drawn = append(drawn, v) })
	if len(drawn) != 2 {
		t.Fatalf("drew %d samples, want 2", len(drawn))
	}
	// Sample i was drawn by member i, so member i alone weighs it, at the
	// node it stands on, with the SRW weight deg(v).
	for i, m := range members {
		if len(m.reads) != 1 {
			t.Fatalf("member %d weighed %d samples, want 1", i, len(m.reads))
		}
		rd := m.reads[0]
		if rd.v != drawn[i] || rd.cur != drawn[i] {
			t.Errorf("member %d weighed %d standing on %d, want sample %d", i, rd.v, rd.cur, drawn[i])
		}
		if want := float64(g.Degree(rd.v)); rd.weight != want {
			t.Errorf("member %d weight = %v, want %v", i, rd.weight, want)
		}
	}
}
