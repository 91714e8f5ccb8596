package durable

import (
	"context"
	"path/filepath"
	"slices"
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

// TestCloseAbandonsFoldInFlight parks the background compactor inside its
// fold's row loop, then closes the cache: Close stops the fold at its next
// check instead of waiting for the rest of the generation it would throw
// away. The fold leaves no temp file, and a reopen recovers the same ledger
// and rows from the previous generation and the WAL without a fetch.
func TestCloseAbandonsFoldInFlight(t *testing.T) {
	dir := t.TempDir()
	const n = 3*foldPollEvery + 100
	c, client := openAttached(t, dir, Options{SegmentBytes: 16 << 10, CompactSegments: 2}, &mapBackend{n: n})
	parked := make(chan struct{})
	var parkedAt, total, later int
	c.foldRows = func(done, rows int) {
		select {
		case <-parked:
			later = max(later, done) // the fold went on after Close began
			return
		default:
		}
		if done == 0 || rows <= 2*foldPollEvery {
			return
		}
		parkedAt, total = done, rows
		close(parked)
		<-c.stop
	}
	ctx := osn.WithTenant(context.Background(), "t")
	queried := graph.NodeID(0)
	for waiting := true; waiting && queried < n; queried++ {
		if _, err := client.NeighborsContext(ctx, queried); err != nil {
			t.Fatalf("query %d: %v", queried, err)
		}
		select {
		case <-parked:
			waiting = false
		default:
		}
	}
	// A slow compactor (the race detector) may still be folding an earlier
	// generation; the seal that the last queries triggered folds the rest.
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("no fold of more than two polls' rows started")
	}
	wantUnique := client.UniqueQueries()

	if err := c.Close(); err != nil {
		t.Fatalf("Close during a fold = %v, want nil", err)
	}
	if later != 0 || parkedAt >= total {
		t.Fatalf("fold parked at row %d of %d went on to row %d after Close", parkedAt, total, later)
	}

	be := &mapBackend{n: n}
	c2, client2 := openAttached(t, dir, Options{CompactSegments: -1}, be)
	defer c2.Close()
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) != 0 {
		t.Errorf("temp files survived the abandoned fold: %v", tmp)
	}
	if got := client2.UniqueQueries(); got != wantUnique {
		t.Errorf("UniqueQueries after reopen = %d, want %d", got, wantUnique)
	}
	for v := graph.NodeID(0); v < queried; v++ {
		nbrs, err := client2.NeighborsContext(ctx, v)
		if err != nil || len(nbrs) != 2 || nbrs[0] != (v+1)%n || nbrs[1] != (v+2)%n {
			t.Fatalf("warm row %d after reopen: %v %v", v, nbrs, err)
		}
	}
	if be.fetches != 0 {
		t.Errorf("reopen hit the backend %d times", be.fetches)
	}
}

// TestSealsDuringFoldAccumulateAnew: the segments a compaction in flight is
// folding stay in the manifest until its swap, but they do not count toward
// the next compaction. One seal during the fold queues nothing; only
// CompactSegments new seals do.
func TestSealsDuringFoldAccumulateAnew(t *testing.T) {
	const n = 4000
	c, client := openAttached(t, t.TempDir(), Options{SegmentBytes: 1 << 10, CompactSegments: 2}, &mapBackend{n: n})
	defer c.Close()
	folded, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c.afterFold = func() {
		once.Do(func() {
			close(folded)
			<-release
		})
	}
	defer close(release)
	ctx := osn.WithTenant(context.Background(), "t")
	next := graph.NodeID(0)
	query := func() {
		if next == n {
			t.Fatal("ran out of users to query")
		}
		if _, err := client.NeighborsContext(ctx, next); err != nil {
			t.Fatalf("query %d: %v", next, err)
		}
		next++
	}
	segments := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.man.Segments)
	}
	// Seal two segments, which triggers a compaction, then stop appending
	// until it has folded everything sealed.
	for segments()-1 < 2 {
		query()
	}
	<-folded
	sealOne := func() {
		for before := segments(); segments() == before; {
			query()
		}
	}
	sealOne()
	if got := len(c.trigger); got != 0 {
		t.Fatalf("one seal during the fold queued %d compactions, want 0", got)
	}
	sealOne()
	if got := len(c.trigger); got != 1 {
		t.Fatalf("two seals during the fold queued %d compactions, want 1", got)
	}
}

// TestCountFramesBoundsScan: countFrames, which sizes a fold's maps, counts
// exactly the records a scan of an intact segment yields, and at least as
// many when the tail is torn or corrupt.
func TestCountFramesBoundsScan(t *testing.T) {
	var seg []byte
	for v := graph.NodeID(0); v < 50; v++ {
		seg = encodeFrame(seg, Record{Type: recFetch, User: v, Billed: v%2 == 0, Neighbors: benchRow(v)})
		if v%7 == 0 {
			seg = encodeFrame(seg, Record{Type: recUpgrade, User: v, Tenant: "t"})
		}
	}
	scanned := func(data []byte) int {
		n := 0
		replaySegment(data, true, func(Record) error { n++; return nil })
		return n
	}
	if got, want := countFrames(seg), scanned(seg); got != want || want == 0 {
		t.Fatalf("intact segment: countFrames = %d, scan yields %d", got, want)
	}
	torn := seg[:len(seg)-3]
	corrupt := slices.Clone(seg)
	corrupt[len(corrupt)-1] ^= 0xff // checksum mismatch in the last frame
	for name, data := range map[string][]byte{"torn": torn, "corrupt": corrupt} {
		if got, want := countFrames(data), scanned(data); got < want {
			t.Fatalf("%s segment: countFrames = %d, below the %d records a scan yields", name, got, want)
		}
	}
}
