package osn

import (
	"context"
	"runtime"
	"testing"

	"rewire/internal/dataset"
	"rewire/internal/graph"
)

// TestMissPathGarbage pins the heap cost of a demand miss: a fresh client
// over a zero-latency service demands every node of small Slashdot B once,
// measured by an exact runtime.MemStats delta (every call is a miss, so the
// averages are per miss). The entry, the one-id request and the backend's
// result slice are the whole budget: a fetch nobody waits on makes no done
// channel, and the table's pages amortize to a few bytes per id. Stray
// goroutines of earlier tests can only add to a delta, so the best of three
// fresh clients counts.
func TestMissPathGarbage(t *testing.T) {
	g := dataset.ByName("Slashdot B", false).Graph
	ctx := context.Background()
	n := g.NumNodes()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mallocs, bytes uint64
	for attempt := range 3 {
		c := NewClient(NewService(g, nil, Config{}))
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for v := range n {
			if _, err := c.NeighborsContext(ctx, graph.NodeID(v)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := c.UniqueQueries(); got != int64(n) {
			t.Fatalf("UniqueQueries = %d, want %d (one miss per node)", got, n)
		}
		if m, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; attempt == 0 || m < mallocs {
			mallocs, bytes = m, b
		}
	}
	perMiss := float64(mallocs) / float64(n)
	perMissBytes := float64(bytes) / float64(n)
	t.Logf("%d misses: %.3f mallocs, %.1f B per miss", n, perMiss, perMissBytes)
	if perMiss > 4 {
		t.Errorf("%.3f mallocs per miss, want at most 4", perMiss)
	}
	if perMissBytes > 396 {
		t.Errorf("%.1f B per miss, want at most 396", perMissBytes)
	}
}
