package walk

import (
	"testing"
	"time"

	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
)

func prefetchTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Social(gen.SocialConfig{Nodes: 400, TargetEdges: 1600}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// trajectories groups a sample stream into per-walker node sequences.
func trajectories(samples []Sample, k int) [][]graph.NodeID {
	out := make([][]graph.NodeID, k)
	for _, s := range samples {
		out[s.Walker] = append(out[s.Walker], s.Node)
	}
	return out
}

// runPartitionedFleet runs a k-member SRW fleet over a fresh client and
// returns the drawn samples plus the client and service for inspection.
// mk == nil runs without prefetch wrapping.
func runPartitionedFleet(t testing.TB, g *graph.Graph, k, total int, seed uint64,
	pf osn.PrefetchConfig, mk func(src PrefetchSource) Prefetcher) ([]Sample, *osn.Client, *osn.Service) {
	t.Helper()
	svc := osn.NewService(g, nil, osn.Config{RealLatency: 20 * time.Microsecond})
	var client *osn.Client
	if mk != nil {
		client = osn.NewPrefetchingClient(svc, pf)
	} else {
		client = osn.NewClient(svc)
	}
	r := rng.New(seed)
	starts := make([]graph.NodeID, k)
	for i := range starts {
		starts[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	fleet := NewFleetSimple(client, starts, rng.New(seed+1))
	if mk != nil {
		fleet = fleet.Prefetched(func() Prefetcher { return mk(client) })
	}
	samples := fleet.SamplesPartitioned(total)
	client.StopPrefetch()
	return samples, client, svc
}

// TestPartitionedFleetDeterministic checks that a partitioned-budget fleet
// is reproducible run to run: same seeds, same per-member trajectories, same
// unique-query bill — the property the prefetch invariants build on.
func TestPartitionedFleetDeterministic(t *testing.T) {
	g := prefetchTestGraph(t)
	const k, total = 4, 2000
	s1, c1, _ := runPartitionedFleet(t, g, k, total, 7, osn.PrefetchConfig{}, nil)
	s2, c2, _ := runPartitionedFleet(t, g, k, total, 7, osn.PrefetchConfig{}, nil)
	if len(s1) != total || len(s2) != total {
		t.Fatalf("drew %d and %d samples, want %d", len(s1), len(s2), total)
	}
	t1, t2 := trajectories(s1, k), trajectories(s2, k)
	for i := range t1 {
		if len(t1[i]) != len(t2[i]) {
			t.Fatalf("member %d drew %d then %d samples", i, len(t1[i]), len(t2[i]))
		}
		for j := range t1[i] {
			if t1[i][j] != t2[i][j] {
				t.Fatalf("member %d diverged at step %d: %d vs %d", i, j, t1[i][j], t2[i][j])
			}
		}
	}
	if c1.UniqueQueries() != c2.UniqueQueries() {
		t.Errorf("unique queries differ across identical runs: %d vs %d",
			c1.UniqueQueries(), c2.UniqueQueries())
	}
}

// TestPrefetchBudgetInvariant is the tentpole's accounting guarantee, run
// with -race: a prefetching fleet draws the exact same trajectories, the
// exact same number of samples, and the exact same unique-query bill as the
// same fleet without prefetching — while the service records that real
// speculation happened. A speculative hit never double-bills; an unused
// prefetch is never billed at all.
func TestPrefetchBudgetInvariant(t *testing.T) {
	g := prefetchTestGraph(t)
	const k, total = 8, 4000
	plain, cPlain, svcPlain := runPartitionedFleet(t, g, k, total, 11, osn.PrefetchConfig{}, nil)
	pf := osn.PrefetchConfig{Workers: 16, Depth: 2, Queue: 4096}
	spec, cSpec, svcSpec := runPartitionedFleet(t, g, k, total, 11, pf,
		func(src PrefetchSource) Prefetcher { return NewFrontier(src) })

	if len(plain) != total || len(spec) != total {
		t.Fatalf("sample budget violated: %d and %d drawn, want %d — speculation must not consume samples",
			len(plain), len(spec), total)
	}
	tp, ts := trajectories(plain, k), trajectories(spec, k)
	for i := range tp {
		if len(tp[i]) != len(ts[i]) {
			t.Fatalf("member %d drew %d plain vs %d prefetched samples", i, len(tp[i]), len(ts[i]))
		}
		for j := range tp[i] {
			if tp[i][j] != ts[i][j] {
				t.Fatalf("member %d trajectory diverged at step %d: %d vs %d — prefetch must be invisible",
					i, j, tp[i][j], ts[i][j])
			}
		}
	}
	if cPlain.UniqueQueries() != cSpec.UniqueQueries() {
		t.Errorf("UniqueQueries differ: %d without prefetch, %d with — billing must be identical",
			cPlain.UniqueQueries(), cSpec.UniqueQueries())
	}
	if svcSpec.TotalQueries() <= svcPlain.TotalQueries() {
		t.Errorf("service saw %d round-trips with prefetch vs %d without — expected real speculation",
			svcSpec.TotalQueries(), svcPlain.TotalQueries())
	}
	stats := cSpec.PrefetchStats()
	if stats.Fetched == 0 {
		t.Error("prefetch pool fetched nothing — the invariant test proved nothing")
	}
}

// noHints is a strategy that never hints anything.
type noHints struct{}

func (noHints) Landed(from, to graph.NodeID) {}

// TestPrefetchedWrapperDelegatesWeight checks the wrapper keeps the inner
// walker's weight: SRW weighs by degree through the wrapper.
func TestPrefetchedWrapperDelegatesWeight(t *testing.T) {
	g := prefetchTestGraph(t)
	w := NewSimple(g, 0, rng.New(1))
	v := w.Step()
	wrapped := WithPrefetch(w, noHints{})
	if got, want := wrapped.StationaryWeight(v), float64(g.Degree(v)); got != want {
		t.Errorf("wrapped SRW StationaryWeight(%d) = %v, want %v", v, got, want)
	}
	if got := wrapped.Current(); got != w.Current() {
		t.Errorf("wrapped Current = %d, inner Current = %d", got, w.Current())
	}
}

// TestFrontierWithoutPoolIsHarmless checks strategies stay no-ops over a
// client with no running pool: hints are refused, nothing is fetched, the
// walk is unaffected.
func TestFrontierWithoutPoolIsHarmless(t *testing.T) {
	g := prefetchTestGraph(t)
	svc := osn.NewService(g, nil, osn.Config{})
	client := osn.NewClient(svc)
	w := WithPrefetch(NewSimple(client, 0, rng.New(1)), NewFrontier(client))
	for i := 0; i < 50; i++ {
		w.Step()
	}
	if got := client.SpeculativeCount(); got != 0 {
		t.Errorf("SpeculativeCount = %d without a pool, want 0", got)
	}
	if got, want := client.UniqueQueries(), int64(client.CacheSize()); got != want {
		t.Errorf("UniqueQueries = %d, CacheSize = %d — all entries should be demanded", got, want)
	}
}

// listSource is a PrefetchSource and CachedSource over fixed neighbor
// lists: a node is known, and demand-cached, exactly when it has a list.
// Prefetch only counts hints, so it allocates nothing itself.
type listSource struct {
	lists map[graph.NodeID][]graph.NodeID
	hints int
}

func (s *listSource) Neighbors(v graph.NodeID) []graph.NodeID { return s.lists[v] }
func (s *listSource) Degree(v graph.NodeID) int               { return len(s.lists[v]) }
func (s *listSource) Prefetch(ids ...graph.NodeID) int        { s.hints += len(ids); return len(ids) }
func (s *listSource) LowDegreeCount() int64                   { return 0 }

func (s *listSource) Known(v graph.NodeID) bool {
	_, ok := s.lists[v]
	return ok
}

func (s *listSource) CachedNeighbors(v graph.NodeID) ([]graph.NodeID, bool) {
	l, ok := s.lists[v]
	return l, ok
}

func (s *listSource) CachedDegree(v graph.NodeID) (int, bool) {
	l, ok := s.lists[v]
	return len(l), ok
}

// hubs returns a listSource with hub 0 listing cold leaves 2..2001 and hub 1
// listing the first 1000 of them.
func hubs() *listSource {
	src := &listSource{lists: make(map[graph.NodeID][]graph.NodeID)}
	for v := graph.NodeID(2); v < 2002; v++ {
		src.lists[0] = append(src.lists[0], v)
		if v < 1002 {
			src.lists[1] = append(src.lists[1], v)
		}
	}
	return src
}

// TestFrontierAdmitsNewcomersToCap: two hubs share 1000 cold leaves. Hub
// 0's scan admits leaves 2..513 and refuses the rest, so the frontier never
// exceeds frontierCap entries, and hub 1's scan still scores the admitted
// shared leaves. After the top 8 are hinted, exactly leaves 10..513 stay,
// each at score 2, and the freed room admits newcomers again.
func TestFrontierAdmitsNewcomersToCap(t *testing.T) {
	src := hubs()
	p := NewFrontier(src)
	check := func(after string, n, score int) {
		t.Helper()
		if len(p.entries) != n || len(p.index) != n {
			t.Fatalf("after %s: frontier holds %d entries (%d indexed), want %d", after, len(p.entries), len(p.index), n)
		}
		lo := graph.NodeID(2 + frontierCap - n)
		for i, e := range p.entries {
			if e.id < lo || e.id >= 2+frontierCap {
				t.Fatalf("after %s: leaf %d admitted, want exactly leaves %d..%d", after, e.id, lo, 2+frontierCap-1)
			}
			if e.score != score {
				t.Fatalf("after %s: leaf %d scores %d, want %d", after, e.id, e.score, score)
			}
			if p.index[e.id] != i {
				t.Fatalf("after %s: index[%d] = %d, entry sits at %d", after, e.id, p.index[e.id], i)
			}
		}
	}
	p.scan(0)
	check("hub 0's scan", frontierCap, 1)
	p.scan(1)
	check("hub 1's scan", frontierCap, 2)
	p.Landed(0, 1)
	check("the first step", frontierCap-frontierWidth, 2)

	// A third hub lists 8 fresh leaves and then leaves already scored: the
	// fresh ones fill the room hinting freed, and the others score a third
	// time.
	src.lists[2] = nil
	for v := graph.NodeID(2002); v < 2010; v++ {
		src.lists[2] = append(src.lists[2], v)
	}
	src.lists[2] = append(src.lists[2], 2+frontierCap-1, 2000)
	p.scan(2)
	if len(p.entries) != frontierCap {
		t.Fatalf("frontier holds %d entries after the third scan, want %d", len(p.entries), frontierCap)
	}
	if _, ok := p.index[2000]; ok {
		t.Fatal("leaf 2000 admitted to a full frontier")
	}
	for _, v := range []graph.NodeID{2002, 2009, 2 + frontierCap - 1} {
		i, ok := p.index[v]
		if !ok {
			t.Fatalf("leaf %d missing after the third scan", v)
		}
		if want := map[bool]int{true: 3, false: 1}[v < 2002]; p.entries[i].score != want {
			t.Fatalf("leaf %d scores %d, want %d", v, p.entries[i].score, want)
		}
	}
}

// TestPrefetchStrategiesStepWithoutAllocating: hinting reuses buffers the
// strategy owns, so a NextHop step, and a Frontier step that scans no new
// list, allocate nothing.
func TestPrefetchStrategiesStepWithoutAllocating(t *testing.T) {
	src := hubs()
	nh := NewNextHop(src)
	if n := testing.AllocsPerRun(100, func() { nh.Landed(0, 1) }); n != 0 {
		t.Errorf("NextHop.Landed: %v allocs per step, want 0", n)
	}
	fr := NewFrontier(src)
	fr.Landed(0, 1) // scans both hubs; later steps only rank and hint
	if n := testing.AllocsPerRun(20, func() { fr.Landed(0, 1) }); n != 0 {
		t.Errorf("Frontier.Landed: %v allocs per step, want 0", n)
	}
	if src.hints == 0 {
		t.Fatal("strategies issued no hints")
	}
}
