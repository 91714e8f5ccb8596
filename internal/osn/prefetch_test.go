package osn

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/rng"
)

func prefetchGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Social(gen.SocialConfig{Nodes: 300, TargetEdges: 1200}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPrefetchInvisibleUntilDemanded checks the billing barrier: a
// speculative fetch reaches the service but stays out of the unique-query
// ledger and out of every free-knowledge accessor until a demand query
// consumes it — at which point it is billed exactly once.
func TestPrefetchInvisibleUntilDemanded(t *testing.T) {
	g := prefetchGraph(t)
	svc := NewService(g, nil, Config{})
	client := NewPrefetchingClient(svc, PrefetchConfig{Workers: 4})
	defer client.StopPrefetch()

	if n := client.Prefetch(0, 1, 2); n != 3 {
		t.Fatalf("Prefetch accepted %d hints, want 3", n)
	}
	waitFor(t, func() bool { return client.SpeculativeCount() == 3 })

	if got := client.UniqueQueries(); got != 0 {
		t.Errorf("UniqueQueries = %d before any demand, want 0", got)
	}
	for _, v := range []graph.NodeID{0, 1, 2} {
		if client.Cached(v) {
			t.Errorf("Cached(%d) = true for a speculative entry", v)
		}
		if _, ok := client.CachedDegree(v); ok {
			t.Errorf("CachedDegree(%d) visible for a speculative entry", v)
		}
		if !client.Known(v) {
			t.Errorf("Known(%d) = false after prefetch completed", v)
		}
	}
	if got := svc.TotalQueries(); got != 3 {
		t.Errorf("service TotalQueries = %d, want 3 speculative round-trips", got)
	}

	// Demanding a prefetched node bills it once and upgrades it.
	if _, err := client.NeighborsContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := client.UniqueQueries(); got != 1 {
		t.Errorf("UniqueQueries = %d after one demand, want 1", got)
	}
	if !client.Cached(1) {
		t.Error("Cached(1) = false after demand upgraded the entry")
	}
	if got := client.SpeculativeCount(); got != 2 {
		t.Errorf("SpeculativeCount = %d, want 2", got)
	}
	// Re-demanding is free, and the service saw no extra round-trip.
	if _, err := client.NeighborsContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got, want := client.UniqueQueries(), int64(1); got != want {
		t.Errorf("UniqueQueries = %d after re-demand, want %d", got, want)
	}
	if got := svc.TotalQueries(); got != 3 {
		t.Errorf("service TotalQueries = %d, want 3 (no extra round-trip)", got)
	}
}

// TestUnusedPrefetchNeverBilled is the cancelled-prefetch half of the budget
// invariant: hints the walk never demands cost zero unique queries, no
// matter when the pool is stopped.
func TestUnusedPrefetchNeverBilled(t *testing.T) {
	g := prefetchGraph(t)
	svc := NewService(g, nil, Config{})
	client := NewPrefetchingClient(svc, PrefetchConfig{Workers: 4})

	ids := make([]graph.NodeID, 50)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	client.Prefetch(ids...)
	client.StopPrefetch() // cancels pending hints, waits out in-flight ones

	if got := client.UniqueQueries(); got != 0 {
		t.Errorf("UniqueQueries = %d with zero demand queries, want 0", got)
	}
	if unused := client.SpeculativeCount(); unused != int64(client.CacheSize()) {
		t.Errorf("SpeculativeCount = %d, CacheSize = %d — every entry should still be speculative",
			unused, client.CacheSize())
	}
}

// TestPrefetchDepthExpandsFrontier checks recursive lookahead: with Depth 2,
// a single hint grows a speculative neighborhood well beyond the hinted node.
func TestPrefetchDepthExpandsFrontier(t *testing.T) {
	g := prefetchGraph(t)
	svc := NewService(g, nil, Config{})
	client := NewPrefetchingClient(svc, PrefetchConfig{Workers: 8, Depth: 2})
	defer client.StopPrefetch()

	client.Prefetch(0)
	// The frontier of node 0 at depth 2: 0, its neighbors, their neighbors.
	want := map[graph.NodeID]bool{0: true}
	for _, v := range g.Neighbors(0) {
		want[v] = true
		for _, w := range g.Neighbors(v) {
			want[w] = true
		}
	}
	waitFor(t, func() bool { return client.CacheSize() >= len(want) })
	if got := client.UniqueQueries(); got != 0 {
		t.Errorf("UniqueQueries = %d, want 0 (all speculative)", got)
	}
}

// TestPrefetchDemandRace hammers demand queries against a deep prefetch
// frontier over the same ID range (run with -race): however the speculative
// and demand fetches interleave, each distinct demanded user is billed
// exactly once and the cache ends consistent.
func TestPrefetchDemandRace(t *testing.T) {
	g := prefetchGraph(t)
	svc := NewService(g, nil, Config{RealLatency: 50 * time.Microsecond})
	client := NewPrefetchingClient(svc, PrefetchConfig{Workers: 16, Depth: 2, Queue: 4096})
	defer client.StopPrefetch()

	const workers = 8
	const queriesPerWorker = 300
	var mu sync.Mutex
	demanded := make(map[graph.NodeID]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < queriesPerWorker; i++ {
				v := graph.NodeID(r.Intn(g.NumNodes()))
				// Interleave hint styles: bare hints, single demands, and
				// batched demands all race for the same users.
				switch i % 3 {
				case 0:
					client.Prefetch(v)
					fallthrough
				case 1:
					if _, err := client.NeighborsContext(context.Background(), v); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					demanded[v] = true
					mu.Unlock()
				default:
					u := graph.NodeID(r.Intn(g.NumNodes()))
					if _, err := client.QueryBatchContext(context.Background(), []graph.NodeID{v, u}); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					demanded[v] = true
					demanded[u] = true
					mu.Unlock()
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()

	if got, want := client.UniqueQueries(), int64(len(demanded)); got != want {
		t.Errorf("UniqueQueries = %d, want %d distinct demanded users", got, want)
	}
	for v := range demanded {
		if !client.Cached(v) {
			t.Errorf("demanded user %d not demand-cached", v)
		}
	}
}

// barrierBackend wraps a Service so that every Fetch blocks until want
// distinct users have been requested: only a batch whose misses are all in
// flight at once can release it. A Fetch still waiting at the deadline
// fails, so a serialized batch is a test failure, not a hang.
type barrierBackend struct {
	svc      *Service
	want     int
	deadline time.Time
	mu       sync.Mutex
	seen     map[graph.NodeID]bool
	released chan struct{}
	once     sync.Once
}

func (b *barrierBackend) Fetch(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, error) {
	b.mu.Lock()
	for _, v := range ids {
		b.seen[v] = true
	}
	if len(b.seen) >= b.want {
		b.once.Do(func() { close(b.released) })
	}
	b.mu.Unlock()
	select {
	case <-b.released:
		return b.svc.Fetch(ctx, ids)
	case <-time.After(time.Until(b.deadline)):
		return nil, errors.New("barrier: batch misses did not overlap")
	}
}

// TestQueryBatchOverlapsAndBillsOnce checks the batch path: order preserved,
// cold misses overlapped, each id billed once even across repeat batches.
func TestQueryBatchOverlapsAndBillsOnce(t *testing.T) {
	g := prefetchGraph(t)
	ids := []graph.NodeID{5, 9, 5, 23, 42, 9}
	// Each of the 4 distinct misses waits for the other 3 to arrive.
	be := &barrierBackend{svc: NewService(g, nil, Config{}), want: 4, deadline: time.Now().Add(5 * time.Second),
		seen: make(map[graph.NodeID]bool), released: make(chan struct{})}
	client := NewClient(be)

	lists, err := client.QueryBatchContext(context.Background(), ids)
	if err != nil {
		t.Fatalf("batch: %v (misses must overlap)", err)
	}
	for i, v := range ids {
		if !slices.Equal(lists[i], g.Neighbors(v)) {
			t.Errorf("lists[%d] = %v, want neighbors of %d %v", i, lists[i], v, g.Neighbors(v))
		}
	}
	if got, want := client.UniqueQueries(), int64(4); got != want {
		t.Errorf("UniqueQueries = %d, want %d", got, want)
	}
	// A second batch over the same ids is free.
	if _, err := client.QueryBatchContext(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	if got, want := client.UniqueQueries(), int64(4); got != want {
		t.Errorf("UniqueQueries = %d after repeat batch, want %d", got, want)
	}
}

// waitFor polls cond until it holds or a generous deadline expires — pool
// workers run asynchronously, so completion tests need a rendezvous.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(time.Millisecond)
	}
}
