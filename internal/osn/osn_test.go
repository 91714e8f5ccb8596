package osn

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/rng"
)

func newTestService(cfg Config) (*Service, *graph.Graph) {
	g := gen.Barbell(5)
	return NewService(g, nil, cfg), g
}

func TestQueryReturnsNeighborhood(t *testing.T) {
	svc, g := newTestService(Config{})
	resp, err := svc.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.User != 0 {
		t.Errorf("User = %d", resp.User)
	}
	if len(resp.Neighbors) != g.Degree(0) {
		t.Errorf("degree = %d, want %d", len(resp.Neighbors), g.Degree(0))
	}
}

func TestQueryUnknownUser(t *testing.T) {
	svc, _ := newTestService(Config{})
	if _, err := svc.Query(-1); !errors.Is(err, ErrNoSuchUser) {
		t.Errorf("negative id: %v", err)
	}
	if _, err := svc.Query(999); !errors.Is(err, ErrNoSuchUser) {
		t.Errorf("large id: %v", err)
	}
}

func TestRateLimitingAdvancesClock(t *testing.T) {
	cfg := Config{QueriesPerWindow: 10, Window: 600 * time.Second, PerQueryLatency: time.Second}
	svc, _ := newTestService(cfg)
	for i := 0; i < 25; i++ {
		if _, err := svc.Query(graph.NodeID(i % 10)); err != nil {
			t.Fatal(err)
		}
	}
	if svc.TotalQueries() != 25 {
		t.Errorf("TotalQueries = %d", svc.TotalQueries())
	}
	// 25 queries at 10/window forces 2 waits.
	if svc.RateLimitWaits() != 2 {
		t.Errorf("RateLimitWaits = %d, want 2", svc.RateLimitWaits())
	}
	// Elapsed >= 2 full windows.
	if svc.SimulatedElapsed() < 2*600*time.Second {
		t.Errorf("SimulatedElapsed = %v, want >= 20m", svc.SimulatedElapsed())
	}
}

func TestNoRateLimitWhenDisabled(t *testing.T) {
	svc, _ := newTestService(Config{PerQueryLatency: time.Millisecond})
	for i := 0; i < 1000; i++ {
		if _, err := svc.Query(0); err != nil {
			t.Fatal(err)
		}
	}
	if svc.RateLimitWaits() != 0 {
		t.Errorf("waits = %d, want 0", svc.RateLimitWaits())
	}
	if svc.SimulatedElapsed() != time.Second {
		t.Errorf("elapsed = %v, want 1s", svc.SimulatedElapsed())
	}
}

func TestWindowResetsNaturally(t *testing.T) {
	// Slow queries spread over windows should never hit the limiter.
	cfg := Config{QueriesPerWindow: 2, Window: 10 * time.Second, PerQueryLatency: 6 * time.Second}
	svc, _ := newTestService(cfg)
	for i := 0; i < 10; i++ {
		if _, err := svc.Query(0); err != nil {
			t.Fatal(err)
		}
	}
	if svc.RateLimitWaits() != 0 {
		t.Errorf("waits = %d, want 0 (natural expiry)", svc.RateLimitWaits())
	}
}

// A quota without a positive window would open a fresh window for every
// query and never limit anything, so NewService refuses it.
func TestNewServicePanicsOnQuotaWithoutWindow(t *testing.T) {
	for _, w := range []time.Duration{0, -time.Second} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Window %v: NewService accepted QueriesPerWindow 2", w)
				}
			}()
			newTestService(Config{QueriesPerWindow: 2, Window: w})
		}()
	}
}

func TestPresetLimits(t *testing.T) {
	fb := FacebookLimits()
	if fb.QueriesPerWindow != 600 || fb.Window != 600*time.Second {
		t.Errorf("facebook limits = %+v", fb)
	}
	tw := TwitterLimits()
	if tw.QueriesPerWindow != 350 || tw.Window != time.Hour {
		t.Errorf("twitter limits = %+v", tw)
	}
}

func TestClientCacheAndUniqueCost(t *testing.T) {
	svc, _ := newTestService(Config{})
	c := NewClient(svc)
	for i := 0; i < 5; i++ {
		if _, err := c.NeighborsContext(context.Background(), 3); err != nil {
			t.Fatal(err)
		}
	}
	if c.UniqueQueries() != 1 {
		t.Errorf("UniqueQueries = %d, want 1 (duplicates are free)", c.UniqueQueries())
	}
	if svc.TotalQueries() != 1 {
		t.Errorf("service saw %d queries, want 1", svc.TotalQueries())
	}
	if !c.Cached(3) || c.Cached(4) {
		t.Error("cache membership wrong")
	}
	if c.CacheSize() != 1 {
		t.Errorf("CacheSize = %d", c.CacheSize())
	}
}

func TestClientNeighborsAndDegree(t *testing.T) {
	svc, g := newTestService(Config{})
	c := NewClient(svc)
	nbrs := c.Neighbors(0)
	if len(nbrs) != g.Degree(0) {
		t.Errorf("Neighbors len = %d, want %d", len(nbrs), g.Degree(0))
	}
	if c.Degree(0) != g.Degree(0) {
		t.Errorf("Degree = %d", c.Degree(0))
	}
	if c.UniqueQueries() != 1 {
		t.Errorf("cost = %d, want 1", c.UniqueQueries())
	}
	if c.Neighbors(-5) != nil {
		t.Error("unknown id should return nil")
	}
	if c.Degree(-5) != 0 {
		t.Error("unknown id degree should be 0")
	}
}

func TestCachedDegreeNeverQueries(t *testing.T) {
	svc, _ := newTestService(Config{})
	c := NewClient(svc)
	if _, ok := c.CachedDegree(2); ok {
		t.Error("CachedDegree hit before any query")
	}
	if svc.TotalQueries() != 0 {
		t.Error("CachedDegree must not issue queries")
	}
	if _, err := c.NeighborsContext(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	d, ok := c.CachedDegree(2)
	if !ok || d != 4 {
		t.Errorf("CachedDegree = %d,%v after query", d, ok)
	}
}

func TestNumUsers(t *testing.T) {
	svc, g := newTestService(Config{})
	if svc.NumUsers() != g.NumNodes() {
		t.Errorf("NumUsers = %d", svc.NumUsers())
	}
	if NewClient(svc).NumUsers() != g.NumNodes() {
		t.Error("client NumUsers mismatch")
	}
}

// wrapped is a middleware stand-in: a Backend over inner that hides every
// capability but Unwrap.
type wrapped struct{ inner Backend }

func (w wrapped) Fetch(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, error) {
	return w.inner.Fetch(ctx, ids)
}
func (w wrapped) Unwrap() Backend { return w.inner }

// TestChain: Chain yields the outermost backend first and the innermost
// last, stops when the caller breaks, and can be ranged over again; the
// client finds a UserCounter anywhere on it.
func TestChain(t *testing.T) {
	svc, g := newTestService(Config{})
	mid := wrapped{svc}
	outer := wrapped{mid}
	for range 2 {
		var got []Backend
		for b := range Chain(outer) {
			got = append(got, b)
		}
		if len(got) != 3 || got[0] != Backend(outer) || got[1] != Backend(mid) || got[2] != Backend(svc) {
			t.Fatalf("Chain = %v, want outer, mid, service", got)
		}
	}
	for b := range Chain(outer) {
		if b != Backend(outer) {
			t.Fatal("Chain yielded past a break")
		}
		break
	}
	if n := NewClient(outer).NumUsers(); n != g.NumNodes() {
		t.Errorf("NumUsers through two wrappers = %d, want %d", n, g.NumNodes())
	}
	if n := len(slices.Collect(Chain(nil))); n != 0 {
		t.Errorf("Chain(nil) yielded %d backends", n)
	}
}

func TestAttributes(t *testing.T) {
	g := gen.EpinionsLikeSmall(3)
	attrs := SynthesizeAttributes(g, rng.New(4))
	if attrs.Len() != g.NumNodes() {
		t.Fatalf("Len = %d", attrs.Len())
	}
	meanAge := attrs.MeanAge()
	if meanAge < 20 || meanAge > 50 {
		t.Errorf("mean age = %v, implausible", meanAge)
	}
	meanDesc := attrs.MeanDescLen()
	if meanDesc < 10 || meanDesc > 2000 {
		t.Errorf("mean desc len = %v, implausible", meanDesc)
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v += 97 {
		a := attrs.Of(v)
		if a.Age < 13 || a.Age > 90 {
			t.Fatalf("age %d out of range", a.Age)
		}
		if a.DescLen < 0 || a.DescLen > 5000 {
			t.Fatalf("desc len %d out of range", a.DescLen)
		}
		if a.Posts < 0 {
			t.Fatalf("posts %d negative", a.Posts)
		}
	}
}

func TestAttributesThroughService(t *testing.T) {
	g := gen.Barbell(4)
	attrs := SynthesizeAttributes(g, rng.New(5))
	svc := NewService(g, attrs, Config{})
	resp, err := svc.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attrs != attrs.Of(1) {
		t.Error("attrs not forwarded through query")
	}
	if resp, _ := NewService(g, nil, Config{}).Query(1); resp.Attrs != (UserAttrs{}) {
		t.Errorf("attribute-free service answered attrs %+v", resp.Attrs)
	}
}

func TestAttributeDegreeCorrelation(t *testing.T) {
	// Construction promises: better-connected users have longer bios on
	// average. Check the aggregate trend on a star-heavy graph.
	g := gen.Star(2001)
	attrs := SynthesizeAttributes(g, rng.New(6))
	hub := attrs.Of(0)
	leafMean := 0.0
	for v := 1; v <= 2000; v++ {
		leafMean += float64(attrs.Of(graph.NodeID(v)).DescLen)
	}
	leafMean /= 2000
	if float64(hub.DescLen) < leafMean {
		t.Logf("hub %d vs leaf mean %v: single draw, not enforced strictly", hub.DescLen, leafMean)
	}
}

// TestLowDegreeCount walks users of degree 1–5 through every path that makes
// a list demand-visible. Only degrees 2 and 3 count, and only once a demand
// query can see them: a speculative fetch or an unbilled seed counts when a
// demand query upgrades it.
func TestLowDegreeCount(t *testing.T) {
	// User k (1..5) has degree k; 0 and 6..9 only pad the degrees out.
	g := graph.FromEdges(10, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5},
		{U: 2, V: 6}, {U: 3, V: 6}, {U: 3, V: 7}, {U: 4, V: 6}, {U: 4, V: 7}, {U: 4, V: 8},
		{U: 5, V: 6}, {U: 5, V: 7}, {U: 5, V: 8}, {U: 5, V: 9},
	})
	ctx := context.Background()
	demand := func(t *testing.T, c *Client, v graph.NodeID) {
		t.Helper()
		if _, err := c.NeighborsContext(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	seed := func(billed bool) func(*testing.T, *Client, graph.NodeID) {
		return func(t *testing.T, c *Client, v graph.NodeID) { c.SeedCached(v, g.Neighbors(v), billed, "") }
	}
	for _, tc := range []struct {
		name string
		// add caches user v; upgrade, when set, then demands it.
		add     func(*testing.T, *Client, graph.NodeID)
		upgrade bool
	}{
		{"demanded commit", demand, false},
		{"speculative commit", func(t *testing.T, c *Client, v graph.NodeID) {
			if _, fetched, _, _ := c.fetchSpeculative(ctx, v); !fetched {
				t.Fatalf("speculative fetch of %d did not fetch", v)
			}
		}, true},
		{"seed billed", seed(true), false},
		{"seed unbilled", seed(false), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClient(NewService(g, nil, Config{}))
			want := int64(0)
			for v := graph.NodeID(1); v <= 5; v++ {
				if g.Degree(v) != int(v) {
					t.Fatalf("user %d has degree %d", v, g.Degree(v))
				}
				tc.add(t, c, v)
				low := v == 2 || v == 3
				if low && !tc.upgrade {
					want++
				}
				if got := c.LowDegreeCount(); got != want {
					t.Fatalf("after caching degree %d: LowDegreeCount = %d, want %d", v, got, want)
				}
				if tc.upgrade {
					demand(t, c, v)
					if low {
						want++
					}
					if got := c.LowDegreeCount(); got != want {
						t.Fatalf("after upgrading degree %d: LowDegreeCount = %d, want %d", v, got, want)
					}
				}
				demand(t, c, v) // a hit never counts twice
				if got := c.LowDegreeCount(); got != want {
					t.Fatalf("after a hit on degree %d: LowDegreeCount = %d, want %d", v, got, want)
				}
			}
			if want != 2 {
				t.Fatalf("ended at %d, want 2", want)
			}
		})
	}
}
