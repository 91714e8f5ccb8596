package core

import (
	"sync"
	"testing"

	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
)

func socialGraph(t testing.TB, nodes, edges int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.Social(gen.SocialConfig{Nodes: nodes, TargetEdges: edges}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkOverlayConsistent asserts the overlay's delta accounting against a
// full materialization: removals only ever mark base edges, additions only
// non-base pairs, so the materialized edge count is exactly
// |base| - removed + added, and per-node overlay degrees agree.
func checkOverlayConsistent(t *testing.T, g *graph.Graph, ov *Overlay) {
	t.Helper()
	mat := ov.Materialize(g.NumNodes())
	want := g.NumEdges() - ov.RemovedCount() + ov.AddedCount()
	if mat.NumEdges() != want {
		t.Errorf("materialized edges = %d, want %d (= %d base - %d removed + %d added)",
			mat.NumEdges(), want, g.NumEdges(), ov.RemovedCount(), ov.AddedCount())
	}
	removed, added, _ := ov.Delta()
	for _, k := range removed {
		u, v := k.Nodes()
		if !graph.ContainsSorted(g.Neighbors(u), v) {
			t.Errorf("removed set contains non-base pair (%d,%d)", u, v)
		}
	}
	for _, k := range added {
		u, v := k.Nodes()
		if graph.ContainsSorted(g.Neighbors(u), v) {
			t.Errorf("added set contains base edge (%d,%d)", u, v)
		}
	}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if ov.Degree(u) != mat.Degree(u) {
			t.Errorf("node %d: overlay degree %d != materialized degree %d", u, ov.Degree(u), mat.Degree(u))
			break
		}
	}
}

// TestOverlayConcurrentReadersWriters hammers one overlay with concurrent
// edge mutations and neighbor reads (run with -race) and then checks the
// edge-delta accounting is still exact.
func TestOverlayConcurrentReadersWriters(t *testing.T) {
	g := socialGraph(t, 400, 1600, 2)
	ov := NewOverlay(g)
	edges := g.Edges()
	n := g.NumNodes()

	var wg sync.WaitGroup
	// Writers: remove base edges, add random chords, occasionally restore.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 1500; i++ {
				switch r.Intn(3) {
				case 0:
					e := edges[r.Intn(len(edges))]
					ov.RemoveEdge(e.U, e.V)
				case 1:
					ov.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
				default:
					e := edges[r.Intn(len(edges))]
					ov.AddEdge(e.U, e.V) // restore if removed, else no-op
				}
			}
		}(uint64(w + 1))
	}
	// Readers: walk the overlay surface.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 3000; i++ {
				u := graph.NodeID(r.Intn(n))
				switch i % 3 {
				case 0:
					ov.Neighbors(u)
				case 1:
					ov.Degree(u)
				default:
					ov.HasEdge(u, graph.NodeID(r.Intn(n)))
				}
			}
		}(uint64(w + 100))
	}
	wg.Wait()
	checkOverlayConsistent(t, g, ov)
}

// TestFleetSharedOverlayConsistency runs a full MTO fleet — shared client,
// shared overlay, one goroutine per sampler — and checks both ledgers
// afterwards: the client's unique-query accounting and the overlay's
// edge-delta accounting.
func TestFleetSharedOverlayConsistency(t *testing.T) {
	g := socialGraph(t, 400, 1600, 3)
	svc := osn.NewService(g, nil, osn.Config{})
	client := osn.NewClient(svc)
	r := rng.New(7)

	const k = 8
	fleet, ov := NewFleet(client, SpreadStarts(k, g.NumNodes(), r), DefaultConfig(), r)
	samples := fleet.Samples(4000)

	if len(samples) != 4000 {
		t.Fatalf("drew %d samples, want 4000", len(samples))
	}
	for _, s := range samples {
		if s.Walker < 0 || s.Walker >= k {
			t.Fatalf("sample with out-of-range walker %d", s.Walker)
		}
	}
	if got, n := client.UniqueQueries(), int64(g.NumNodes()); got > n {
		t.Errorf("unique queries %d exceed user count %d", got, n)
	}
	if got, want := client.UniqueQueries(), svc.TotalQueries(); got != want {
		t.Errorf("client unique %d != service total %d: a duplicate slipped past the shared cache", got, want)
	}
	if int64(client.CacheSize()) != client.UniqueQueries() {
		t.Errorf("cache size %d != unique queries %d", client.CacheSize(), client.UniqueQueries())
	}
	// Rewiring happened (the sampler's whole point) and its ledger is exact.
	if ov.RemovedCount() == 0 {
		t.Error("fleet performed no removals on a clustered social graph")
	}
	// Every removal mark traces back to a member operation: plain removals
	// mark one base edge each, and each Theorem 4 replacement removes one
	// edge too (its added edge may later be cancelled, leaving the mark).
	var removalOps int64
	for _, m := range fleet.Members() {
		st := m.(*Sampler).Stats()
		removalOps += st.Removals + st.Replacements
	}
	if int64(ov.RemovedCount()) > removalOps {
		t.Errorf("overlay removed %d edges but members only performed %d removal-capable ops", ov.RemovedCount(), removalOps)
	}
	checkOverlayConsistent(t, g, ov)
}

// TestFleetMatchesSequentialBudget checks the fleet does the same *kind* of
// work as the sequential round-robin baseline: on the same graph with the
// same member count and sample budget, both stay within the unique-query
// ceiling (the node count) and both discover a rewired overlay.
func TestFleetMatchesSequentialBudget(t *testing.T) {
	g := socialGraph(t, 300, 1200, 4)
	starts := SpreadStarts(4, g.NumNodes(), rng.New(9))
	const budget = 2000

	svcSeq := osn.NewService(g, nil, osn.Config{})
	clientSeq := osn.NewClient(svcSeq)
	seq, ovSeq := NewFleet(clientSeq, starts, DefaultConfig(), rng.New(11))
	members := seq.Members()
	for i := 0; i < budget; i++ {
		members[i%len(members)].Step()
	}

	svcFl := osn.NewService(g, nil, osn.Config{})
	clientFl := osn.NewClient(svcFl)
	f, ovFl := NewFleet(clientFl, starts, DefaultConfig(), rng.New(11))
	f.Samples(budget)

	n := int64(g.NumNodes())
	if clientSeq.UniqueQueries() > n || clientFl.UniqueQueries() > n {
		t.Errorf("unique queries exceed node count: seq %d, fleet %d, n %d",
			clientSeq.UniqueQueries(), clientFl.UniqueQueries(), n)
	}
	if ovSeq.RemovedCount() == 0 || ovFl.RemovedCount() == 0 {
		t.Errorf("expected rewiring in both modes: seq removed %d, fleet removed %d",
			ovSeq.RemovedCount(), ovFl.RemovedCount())
	}
	checkOverlayConsistent(t, g, ovSeq)
	checkOverlayConsistent(t, g, ovFl)
}
