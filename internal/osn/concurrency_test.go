package osn

import (
	"context"
	"sync"
	"testing"
	"time"

	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/rng"
)

// TestClientConcurrentUniqueAccounting hammers one shared client from many
// goroutines (run with -race) and checks the paper's cost accounting stays
// exact: every distinct user queried is charged exactly once, no matter how
// many goroutines race for it, and every miss reaches the service exactly
// once.
func TestClientConcurrentUniqueAccounting(t *testing.T) {
	g, err := gen.Social(gen.SocialConfig{Nodes: 300, TargetEdges: 1200}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(g, nil, Config{})
	client := NewClient(svc)

	const workers = 16
	const queriesPerWorker = 500
	var mu sync.Mutex
	distinct := make(map[graph.NodeID]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < queriesPerWorker; i++ {
				v := graph.NodeID(r.Intn(g.NumNodes()))
				if _, err := client.NeighborsContext(context.Background(), v); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				distinct[v] = true
				mu.Unlock()
			}
		}(uint64(w + 1))
	}
	wg.Wait()

	want := int64(len(distinct))
	if got := client.UniqueQueries(); got != want {
		t.Errorf("UniqueQueries = %d, want %d distinct users", got, want)
	}
	if got := int64(client.CacheSize()); got != want {
		t.Errorf("CacheSize = %d, want %d", got, want)
	}
	if got := svc.TotalQueries(); got != want {
		t.Errorf("service TotalQueries = %d, want %d (one per unique miss)", got, want)
	}
	for v := range distinct {
		if !client.Cached(v) {
			t.Errorf("user %d queried but not cached", v)
		}
	}
}

// TestServiceConcurrentRateLimit drives the rate-limited service from many
// goroutines and checks the mutex-guarded simulated clock admits queries
// exactly as a serial caller would: the number of window waits depends only
// on the total query count, not on the interleaving.
func TestServiceConcurrentRateLimit(t *testing.T) {
	g := gen.Barbell(8)
	svc := NewService(g, nil, Config{QueriesPerWindow: 10, Window: 100, PerQueryLatency: 0})

	const workers = 8
	const queriesPerWorker = 125 // 1000 total
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < queriesPerWorker; i++ {
				if _, err := svc.Query(graph.NodeID(r.Intn(g.NumNodes()))); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()

	const total = workers * queriesPerWorker
	if got := svc.TotalQueries(); got != total {
		t.Errorf("TotalQueries = %d, want %d", got, total)
	}
	// With zero latency the clock only moves on waits, so exactly one wait
	// fires per full window after the first: queries 11, 21, ... block.
	wantWaits := int64(total/10 - 1)
	if got := svc.RateLimitWaits(); got != wantWaits {
		t.Errorf("RateLimitWaits = %d, want %d", got, wantWaits)
	}
}

// TestClientCoalescesConcurrentMisses points many goroutines at the same
// uncached users simultaneously, with real latency widening the race window:
// the in-flight table must collapse all of them into one service query per
// user.
func TestClientCoalescesConcurrentMisses(t *testing.T) {
	g := gen.Barbell(8)
	svc := NewService(g, nil, Config{RealLatency: 2 * time.Millisecond})
	client := NewClient(svc)

	const workers = 16
	targets := []graph.NodeID{0, 5, 11}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range targets {
				if _, err := client.NeighborsContext(context.Background(), v); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	want := int64(len(targets))
	if got := svc.TotalQueries(); got != want {
		t.Errorf("service saw %d queries, want %d (misses must coalesce)", got, want)
	}
	if got := client.UniqueQueries(); got != want {
		t.Errorf("UniqueQueries = %d, want %d", got, want)
	}
}

// TestClientConcurrentCachedReads interleaves cache-hit reads with misses to
// exercise the read/write lock paths together under -race.
func TestClientConcurrentCachedReads(t *testing.T) {
	g := gen.Barbell(8)
	svc := NewService(g, nil, Config{})
	client := NewClient(svc)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 400; i++ {
				v := graph.NodeID(r.Intn(g.NumNodes()))
				switch i % 4 {
				case 0:
					client.Neighbors(v)
				case 1:
					client.Degree(v)
				case 2:
					client.CachedDegree(v)
				default:
					client.Cached(v)
				}
			}
		}(uint64(w + 100))
	}
	wg.Wait()
	if client.UniqueQueries() > int64(g.NumNodes()) {
		t.Errorf("unique queries %d exceed user count %d", client.UniqueQueries(), g.NumNodes())
	}
}
