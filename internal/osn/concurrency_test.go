package osn

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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

// TestClientStripeRace mixes every stripe-lock transition on one client with
// two stripes, so unrelated users collide on a lock: cache hits, coalesced
// misses, prefetch upgrades, waiters cancelled mid-fetch and tenants running
// into private budgets. Lock-free readers check that a list is never
// visible before it is written. Once everything settles, the ledger must
// balance: unique + speculative == CacheSize, the tenant bills sum to
// UniqueQueries, no reservation dangles, and no tenant exceeds its budget.
func TestClientStripeRace(t *testing.T) {
	g := prefetchGraph(t)
	svc := NewService(g, nil, Config{RealLatency: 20 * time.Microsecond})
	c := NewClientShards(svc, 2)
	c.StartPrefetch(PrefetchConfig{Workers: 4, Depth: 1, Queue: 256})
	budgets := map[string]int64{"t0": 0, "t1": 10, "t2": 60, "t3": 0}
	for name, b := range budgets {
		c.SetTenantBudget(name, b)
	}
	n := g.NumNodes()
	var exhausted atomic.Int64
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w + 1))
			ctx := WithTenant(context.Background(), fmt.Sprintf("t%d", w%4))
			for i := range 400 {
				v := graph.NodeID(r.Intn(n))
				var err error
				switch i % 5 {
				case 0: // prefetch, then demand: upgrade or coalesce
					c.Prefetch(v)
					_, err = c.NeighborsContext(ctx, v)
				case 1: // a waiter that may give up mid-fetch
					cctx, cancel := context.WithTimeout(ctx, time.Duration(r.Intn(30))*time.Microsecond)
					_, err = c.NeighborsContext(cctx, v)
					cancel()
				case 2: // a batch: coalesced misses across stripes
					_, err = c.QueryBatchContext(ctx, []graph.NodeID{v, graph.NodeID(r.Intn(n))})
				default: // hits once warm
					_, err = c.NeighborsContext(ctx, graph.NodeID(r.Intn(n/4)))
				}
				switch {
				case errors.Is(err, ErrBudgetExhausted):
					exhausted.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					// Its own deadline, or that of the fetch it coalesced
					// onto: waiters share the driving fetch's fate.
				case err != nil:
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for v := graph.NodeID(0); ; v = (v + 1) % graph.NodeID(n) {
			select {
			case <-stop:
				return
			default:
			}
			if nbrs, ok := c.CachedNeighbors(v); ok && !slices.Equal(nbrs, g.Neighbors(v)) {
				t.Errorf("CachedNeighbors(%d) published a list before it was written", v)
				return
			}
			if d, ok := c.CachedDegree(v); ok && d != g.Degree(v) {
				t.Errorf("CachedDegree(%d) = %d, want %d", v, d, g.Degree(v))
				return
			}
			c.Known(v)
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	c.StopPrefetch() // in-flight speculative fetches commit before it returns

	if got, want := c.UniqueQueries()+c.SpeculativeCount(), int64(c.CacheSize()); got != want {
		t.Errorf("unique + speculative = %d, CacheSize = %d", got, want)
	}
	if got, want := billSum(c), c.UniqueQueries(); got != want {
		t.Errorf("tenant bills sum to %d, UniqueQueries = %d", got, want)
	}
	for name, b := range c.TenantBills() {
		if b.Reserved != 0 {
			t.Errorf("tenant %q left a dangling reservation: %+v", name, b)
		}
		if b.Budget > 0 && b.Unique > b.Budget {
			t.Errorf("tenant %q billed %d over its budget %d", name, b.Unique, b.Budget)
		}
	}
	if exhausted.Load() == 0 {
		t.Error("no demand ran into a budget; the tenant caps went untested")
	}
}
