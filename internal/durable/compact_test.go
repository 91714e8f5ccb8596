package durable

import (
	"context"
	"sync"
	"testing"
	"time"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// TestCloseDuringBackgroundCompaction parks the background compactor between
// its fold and its manifest swap, closes the cache, then lets the compactor
// find the cache closed. The abandoned generation is debris for the next
// open, so Close reports no error and a reopen recovers the same ledger.
func TestCloseDuringBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	const n = 4000
	c, client := openAttached(t, dir, Options{SegmentBytes: 1 << 10, CompactSegments: 2}, &mapBackend{n: n})
	folded, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c.afterFold = func() {
		once.Do(func() {
			close(folded)
			<-release
		})
	}
	ctx := osn.WithTenant(context.Background(), "t")
	queried := graph.NodeID(0)
	for waiting := true; waiting; queried++ {
		if queried == n {
			t.Fatal("no background compaction started")
		}
		if _, err := client.NeighborsContext(ctx, queried); err != nil {
			t.Fatalf("query %d: %v", queried, err)
		}
		select {
		case <-folded:
			waiting = false
		default:
		}
	}
	wantUnique := client.UniqueQueries()

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	for !c.isClosed() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close during compaction = %v, want nil", err)
	}

	be := &mapBackend{n: n}
	c2, client2 := openAttached(t, dir, Options{CompactSegments: -1}, be)
	defer c2.Close()
	if got := c2.Stats().Gen; got != 0 {
		t.Errorf("reopened gen = %d, want 0 (the abandoned compaction never committed)", got)
	}
	if got := client2.UniqueQueries(); got != wantUnique {
		t.Errorf("UniqueQueries after reopen = %d, want %d", got, wantUnique)
	}
	for v := graph.NodeID(0); v < queried; v++ {
		nbrs, err := client2.NeighborsContext(ctx, v)
		if err != nil || len(nbrs) != 2 || nbrs[0] != (v+1)%n {
			t.Fatalf("warm row %d after reopen: %v %v", v, nbrs, err)
		}
	}
	if be.fetches != 0 {
		t.Errorf("reopen hit the backend %d times", be.fetches)
	}
}

// isClosed reports whether Close has begun.
func (c *Cache) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}
