package core

import (
	"runtime"
	"testing"
	"time"

	"rewire/internal/dataset"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
)

// gadgetRing links copies of TestSamplerTheorem5UsesClientCache's gadget, in
// which only Theorem 5 can remove the edge (0, 1): copy c's node 7 links to
// copy c+1's node 4. The ring has no other removable edge and no degree-3
// pivot.
func gadgetRing(copies int) *graph.Graph {
	gadget := []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3},
		{U: 0, V: 4}, {U: 0, V: 5}, {U: 1, V: 6}, {U: 1, V: 7},
	}
	var edges []graph.Edge
	for c := range copies {
		off := graph.NodeID(8 * c)
		for _, e := range gadget {
			edges = append(edges, graph.Edge{U: off + e.U, V: off + e.V})
		}
		edges = append(edges, graph.Edge{U: off + 7, V: graph.NodeID(8*((c+1)%copies)) + 4})
	}
	return graph.FromEdges(8*copies, edges)
}

// TestSamplerT5Only: on the gadget ring every removal is Theorem 5's, and
// on the small Slashdot B stand-in (minimum degree 4) none is.
func TestSamplerT5Only(t *testing.T) {
	run := func(g *graph.Graph, steps int) Stats {
		client := osn.NewClient(osn.NewService(g, nil, osn.Config{}))
		s := NewSampler(client, 0, DefaultConfig(), rng.New(3))
		for range steps {
			s.Step()
		}
		return s.Stats()
	}
	if st := run(gadgetRing(40), 4000); st.Removals == 0 || st.T5Only != st.Removals {
		t.Errorf("gadget ring: T5Only = %d, Removals = %d, want equal and > 0", st.T5Only, st.Removals)
	}
	slashdot := dataset.ByName("Slashdot B", false).Graph
	if st := run(slashdot, 5000); st.Removals == 0 || st.T5Only != 0 {
		t.Errorf("small Slashdot B: T5Only = %d, Removals = %d, want 0 of > 0", st.T5Only, st.Removals)
	}
}

// TestSamplerMemoFleetRace runs an 8-member MTO fleet with prefetch hints
// over one prefetching client on the gadget ring, so members read
// LowDegreeCount and cached degrees while others and the pool commit lists.
// Run it under -race. Afterwards the count must match the demand-cached
// degree-2/3 users, and every removal must be Theorem 5's.
func TestSamplerMemoFleetRace(t *testing.T) {
	g := gadgetRing(40)
	client := osn.NewPrefetchingClient(osn.NewService(g, nil, osn.Config{RealLatency: 20 * time.Microsecond}),
		osn.PrefetchConfig{Workers: 4, Queue: 64})
	cfg := DefaultConfig()
	cfg.Prefetch = true
	r := rng.New(5)
	fleet, ov := NewFleet(client, SpreadStarts(8, g.NumNodes(), r), cfg, r)
	if got := len(fleet.Samples(4000)); got != 4000 {
		t.Fatalf("drew %d samples, want 4000", got)
	}
	client.StopPrefetch()

	var low int64
	for v := range graph.NodeID(g.NumNodes()) {
		if k, ok := client.CachedDegree(v); ok && (k == 2 || k == 3) {
			low++
		}
	}
	if got := client.LowDegreeCount(); got != low {
		t.Errorf("LowDegreeCount = %d, but %d demand-cached users have degree 2 or 3", got, low)
	}
	var removals, t5Only int64
	for _, m := range fleet.Members() {
		st := m.(*Sampler).Stats()
		removals += st.Removals
		t5Only += st.T5Only
	}
	if removals == 0 || t5Only != removals || int64(ov.RemovedCount()) != removals {
		t.Errorf("removals = %d, T5Only = %d, overlay removed %d: want all equal and > 0",
			removals, t5Only, ov.RemovedCount())
	}
	checkOverlayConsistent(t, g, ov)
}

// TestStationaryWeightSampledAllocs pins WeightSampled's warm weight read to
// zero allocations: the index permutation reuses a per-sampler buffer. Warm
// means nothing is left to learn: WeightExact passes over the visited nodes
// repeat until one issues no query and commits no removal, so every edge a
// sampled read can test is cached, and one it cannot reject from degrees has
// a memoized negative verdict at the current low-degree count. The measured
// loop must then issue no query and commit no removal, and the
// runtime.MemStats delta over it must be exactly zero.
func TestStationaryWeightSampledAllocs(t *testing.T) {
	g := dataset.ByName("Slashdot B", false).Graph
	client := osn.NewClient(osn.NewService(g, nil, osn.Config{}))
	cfg := DefaultConfig()
	cfg.Weights = WeightSampled
	s := NewSampler(client, 0, cfg, rng.New(7))
	var visited []graph.NodeID
	for range 2000 {
		visited = append(visited, s.Step())
	}
	for pass := 0; ; pass++ {
		if pass == 20 {
			t.Fatal("exact passes still querying or removing after 20 rounds")
		}
		q, removals := client.UniqueQueries(), s.Stats().Removals
		for _, v := range visited {
			s.classifyIncident(v, -1) // WeightExact's pass
		}
		if client.UniqueQueries() == q && s.Stats().Removals == removals {
			break
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	q, removals := client.UniqueQueries(), s.Stats().Removals
	// Stray goroutines of earlier tests can only add to a delta, so the
	// best of three loops counts.
	var mallocs uint64
	for attempt := range 3 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range 2000 {
			s.StationaryWeight(visited[i%len(visited)])
		}
		runtime.ReadMemStats(&after)
		if m := after.Mallocs - before.Mallocs; attempt == 0 || m < mallocs {
			mallocs = m
		}
	}
	if got := client.UniqueQueries() - q; got != 0 {
		t.Errorf("warm loops issued %d queries, want 0", got)
	}
	if got := s.Stats().Removals - removals; got != 0 {
		t.Errorf("warm loops committed %d removals, want 0", got)
	}
	if mallocs != 0 {
		t.Errorf("warm StationaryWeight under WeightSampled: %d allocs over 2000 calls, want 0", mallocs)
	}
}
