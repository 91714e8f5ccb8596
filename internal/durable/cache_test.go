package durable

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// mapBackend is a deterministic in-memory backend: neighbors of v are
// (v+1)%n and (v+2)%n. Fetches count for warm-start assertions.
type mapBackend struct {
	n       int32
	fetches int
}

func (b *mapBackend) Fetch(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, error) {
	out := make([][]graph.NodeID, len(ids))
	for i, v := range ids {
		if v < 0 || v >= b.n {
			return nil, osn.ErrNoSuchUser
		}
		b.fetches++
		out[i] = []graph.NodeID{(v + 1) % b.n, (v + 2) % b.n}
	}
	return out, nil
}

func openAttached(t *testing.T, dir string, opt Options, be osn.Backend) (*Cache, *osn.Client) {
	t.Helper()
	c, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	client := osn.NewClient(be)
	if err := c.Attach(client); err != nil {
		c.Close()
		t.Fatalf("Attach: %v", err)
	}
	return c, client
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: recFetch, User: 7, Billed: true, Tenant: "acme", Attrs: osn.UserAttrs{Age: 33, DescLen: 5, Posts: 12}, Neighbors: []graph.NodeID{1, 2, 3}},
		{Type: recFetch, User: 0, Neighbors: []graph.NodeID{}},
		{Type: recUpgrade, User: 9, Tenant: ""},
		{Type: recTombstone, User: 4},
		{Type: recBudget, Budget: -3},
		{Type: recTenantBudget, Tenant: "t2", Budget: 500},
		{Type: recBarrier, Gen: 42},
	}
	var buf []byte
	for _, r := range recs {
		buf = encodeFrame(buf, r)
	}
	var got []Record
	valid, err := replaySegment(buf, false, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if valid != int64(len(buf)) {
		t.Fatalf("valid = %d, want %d", valid, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		g := got[i]
		if g.Type != r.Type || g.User != r.User || g.Billed != r.Billed || g.Tenant != r.Tenant ||
			g.Budget != r.Budget || g.Gen != r.Gen || g.Attrs != r.Attrs || len(g.Neighbors) != len(r.Neighbors) {
			t.Errorf("record %d: got %+v, want %+v", i, g, r)
		}
		for j := range r.Neighbors {
			if g.Neighbors[j] != r.Neighbors[j] {
				t.Errorf("record %d neighbor %d: got %d, want %d", i, j, g.Neighbors[j], r.Neighbors[j])
			}
		}
	}
}

func TestReplayTornTailTruncatesAtEveryOffset(t *testing.T) {
	var buf []byte
	for i := 0; i < 5; i++ {
		buf = encodeFrame(buf, Record{Type: recFetch, User: graph.NodeID(i), Billed: true, Neighbors: []graph.NodeID{1, 2}})
	}
	// Frame boundaries: replay of any prefix recovers exactly the complete
	// frames and reports their byte length as valid.
	boundaries := []int64{}
	valid, err := replaySegment(buf, true, func(Record) error { boundaries = append(boundaries, 0); return nil })
	if err != nil || valid != int64(len(buf)) {
		t.Fatalf("full replay: valid=%d err=%v", valid, err)
	}
	for cut := 0; cut <= len(buf); cut++ {
		n := 0
		valid, err := replaySegment(buf[:cut], true, func(Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut %d: tail replay errored: %v", cut, err)
		}
		if valid > int64(cut) {
			t.Fatalf("cut %d: valid %d beyond data", cut, valid)
		}
		// Re-replay of the truncated prefix must be idempotent.
		n2 := 0
		valid2, err := replaySegment(buf[:valid], true, func(Record) error { n2++; return nil })
		if err != nil || valid2 != valid || n2 != n {
			t.Fatalf("cut %d: re-replay diverged: valid %d→%d records %d→%d err=%v", cut, valid, valid2, n, n2, err)
		}
	}
	// Sealed segments reject the same torn data loudly.
	if _, err := replaySegment(buf[:len(buf)-1], false, func(Record) error { return nil }); err == nil {
		t.Fatal("sealed segment with torn tail replayed without error")
	}
}

func TestReplayRejectsBitFlips(t *testing.T) {
	var buf []byte
	for i := 0; i < 3; i++ {
		buf = encodeFrame(buf, Record{Type: recFetch, User: graph.NodeID(i), Neighbors: []graph.NodeID{9}})
	}
	for bit := 0; bit < len(buf)*8; bit += 7 {
		mut := bytes.Clone(buf)
		mut[bit/8] ^= 1 << (bit % 8)
		_, err := replaySegment(mut, false, func(Record) error { return nil })
		full, terr := replaySegment(mut, true, func(Record) error { return nil })
		if terr != nil {
			t.Fatalf("bit %d: tail replay must never error, got %v", bit, terr)
		}
		if err == nil && full != int64(len(mut)) {
			t.Fatalf("bit %d: sealed replay accepted what tail replay truncated", bit)
		}
	}
}

func TestMetaRoundTrip(t *testing.T) {
	m := newMetaState(0)
	m.apply(Record{Type: recFetch, User: 3, Billed: true, Tenant: "a", Attrs: osn.UserAttrs{Age: 1}, Neighbors: []graph.NodeID{1}})
	m.apply(Record{Type: recFetch, User: 5, Billed: false, Neighbors: nil})
	m.apply(Record{Type: recUpgrade, User: 5, Tenant: "b"})
	m.apply(Record{Type: recFetch, User: 9, Billed: true, Tenant: "a"})
	m.apply(Record{Type: recTombstone, User: 9})
	m.apply(Record{Type: recBudget, Budget: 100})
	m.apply(Record{Type: recTenantBudget, Tenant: "a", Budget: 40})
	enc := encodeMeta(m)
	if !bytes.Equal(enc, encodeMeta(m)) {
		t.Fatal("encodeMeta not deterministic")
	}
	got, err := decodeMeta(enc, 0)
	if err != nil {
		t.Fatalf("decodeMeta: %v", err)
	}
	if len(got.entries) != 2 || got.unique["a"] != 2 || got.unique["b"] != 1 ||
		got.budget != 100 || got.tenantBudget["a"] != 40 {
		t.Fatalf("decoded state mismatch: %+v", got)
	}
	if e := got.entries[5]; !e.billed || e.tenant != "b" {
		t.Fatalf("upgraded entry mismatch: %+v", e)
	}
	// Tombstoned id 9's bill survives in unique["a"] with no entry.
	if _, ok := got.entries[9]; ok {
		t.Fatal("tombstoned entry survived")
	}
	if _, err := decodeMeta(enc[:len(enc)-1], 0); err == nil {
		t.Fatal("truncated meta decoded")
	}
	mut := bytes.Clone(enc)
	mut[len(mut)/2] ^= 0x40
	if _, err := decodeMeta(mut, 0); err == nil {
		t.Fatal("bit-flipped meta decoded")
	}
}

func TestCacheReopenRestoresExactState(t *testing.T) {
	dir := t.TempDir()
	be := &mapBackend{n: 1000}
	c, client := openAttached(t, dir, Options{}, be)
	client.SetBudget(800)
	client.SetTenantBudget("acme", 300)
	ctx := osn.WithTenant(context.Background(), "acme")
	for v := graph.NodeID(0); v < 50; v++ {
		if _, err := client.NeighborsContext(ctx, v); err != nil {
			t.Fatalf("query %d: %v", v, err)
		}
	}
	if _, err := client.NeighborsContext(context.Background(), 200); err != nil {
		t.Fatalf("anonymous query: %v", err)
	}
	wantUnique := client.UniqueQueries()
	wantSize := client.CacheSize()
	wantAcme := client.TenantBill("acme")
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	be2 := &mapBackend{n: 1000}
	c2, client2 := openAttached(t, dir, Options{}, be2)
	defer c2.Close()
	if got := client2.UniqueQueries(); got != wantUnique {
		t.Errorf("UniqueQueries after reopen = %d, want %d", got, wantUnique)
	}
	if got := client2.CacheSize(); got != wantSize {
		t.Errorf("CacheSize after reopen = %d, want %d", got, wantSize)
	}
	if got := client2.TenantBill("acme"); got != wantAcme {
		t.Errorf("TenantBill(acme) after reopen = %+v, want %+v", got, wantAcme)
	}
	// Replayed entries are warm: re-querying them costs no backend fetch and
	// no unique query.
	for v := graph.NodeID(0); v < 50; v++ {
		nbrs, err := client2.NeighborsContext(ctx, v)
		if err != nil {
			t.Fatalf("warm query %d: %v", v, err)
		}
		if len(nbrs) != 2 || nbrs[0] != (v+1)%1000 {
			t.Fatalf("warm query %d: wrong neighbors %v", v, nbrs)
		}
	}
	if be2.fetches != 0 {
		t.Errorf("warm reopen hit the backend %d times", be2.fetches)
	}
	if got := client2.UniqueQueries(); got != wantUnique {
		t.Errorf("UniqueQueries after warm re-queries = %d, want %d", got, wantUnique)
	}
	// The replayed budget still binds: 800 global, and the crawl above used
	// 51; a fresh query must bill normally until the cap.
	if _, err := client2.NeighborsContext(ctx, 900); err != nil {
		t.Fatalf("fresh query after reopen: %v", err)
	}
	if got := client2.UniqueQueries(); got != wantUnique+1 {
		t.Errorf("fresh query billed %d, want %d", got, wantUnique+1)
	}
}

func TestCacheRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	be := &mapBackend{n: 4000}
	// Tiny segments force rotations; CompactSegments < 0 keeps compaction
	// manual so the test controls when the fold happens.
	c, client := openAttached(t, dir, Options{SegmentBytes: 1 << 10, CompactSegments: -1}, be)
	ctx := osn.WithTenant(context.Background(), "t")
	for v := graph.NodeID(0); v < 500; v++ {
		if _, err := client.NeighborsContext(ctx, v); err != nil {
			t.Fatalf("query %d: %v", v, err)
		}
	}
	if st := c.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotations, got %d segments", st.Segments)
	}
	if err := c.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := c.Stats()
	if st.Gen != 1 || st.Compactions != 1 {
		t.Fatalf("after compact: %+v", st)
	}
	if st.Segments != 1 {
		t.Fatalf("compaction left %d segments, want 1 (active)", st.Segments)
	}
	// The mmap'd rows seeded into the client before compaction must still be
	// readable after the old generation was superseded and unlinked.
	for v := graph.NodeID(0); v < 500; v++ {
		nbrs, ok := client.CachedNeighbors(v)
		if !ok || nbrs[0] != (v+1)%4000 {
			t.Fatalf("cached row %d unreadable after compaction", v)
		}
	}
	// More traffic after compaction, then a second compact folds snapshot +
	// new segments.
	for v := graph.NodeID(500); v < 900; v++ {
		if _, err := client.NeighborsContext(ctx, v); err != nil {
			t.Fatalf("query %d: %v", v, err)
		}
	}
	if err := c.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	wantUnique := client.UniqueQueries()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	be2 := &mapBackend{n: 4000}
	c2, client2 := openAttached(t, dir, Options{}, be2)
	defer c2.Close()
	if got := c2.Stats().Gen; got != 2 {
		t.Errorf("reopened gen = %d, want 2", got)
	}
	if got := client2.UniqueQueries(); got != wantUnique {
		t.Errorf("UniqueQueries after compacted reopen = %d, want %d", got, wantUnique)
	}
	for v := graph.NodeID(0); v < 900; v++ {
		nbrs, err := client2.NeighborsContext(ctx, v)
		if err != nil || len(nbrs) != 2 || nbrs[1] != (v+2)%4000 {
			t.Fatalf("warm row %d after compacted reopen: %v %v", v, nbrs, err)
		}
	}
	if be2.fetches != 0 {
		t.Errorf("compacted reopen hit the backend %d times", be2.fetches)
	}
}

func TestTombstoneKeepsBillOnReplay(t *testing.T) {
	// A billed fetch then its tombstone: the bill must survive replay — from
	// raw WAL and from a compacted generation alike — with no cache entry.
	for _, compact := range []bool{false, true} {
		dir := t.TempDir()
		c, client := openAttached(t, dir, Options{CompactSegments: -1}, &mapBackend{n: 10})
		if _, err := client.NeighborsContext(context.Background(), 3); err != nil {
			t.Fatalf("query: %v", err)
		}
		if err := c.append(Record{Type: recTombstone, User: 3}); err != nil {
			t.Fatalf("tombstone: %v", err)
		}
		if compact {
			if err := c.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
		c.Close()

		be := &mapBackend{n: 10}
		c2, client2 := openAttached(t, dir, Options{CompactSegments: -1}, be)
		if got := client2.UniqueQueries(); got != 1 {
			t.Fatalf("compact=%v: replayed unique = %d, want 1 (tombstoned bill kept)", compact, got)
		}
		if client2.Cached(3) {
			t.Fatalf("compact=%v: tombstoned entry came back cached", compact)
		}
		// Re-fetching the tombstoned id bills again, exactly as live.
		if _, err := client2.NeighborsContext(context.Background(), 3); err != nil {
			t.Fatalf("refetch: %v", err)
		}
		if got := client2.UniqueQueries(); got != 2 {
			t.Fatalf("compact=%v: refetch billed %d, want 2", compact, got)
		}
		c2.Close()
	}
}

func TestOpenRefusesSecondProcessLock(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a locked dir succeeded")
	}
}

func TestOpenPrunesDebris(t *testing.T) {
	dir := t.TempDir()
	c, client := openAttached(t, dir, Options{}, &mapBackend{n: 10})
	if _, err := client.NeighborsContext(context.Background(), 1); err != nil {
		t.Fatalf("query: %v", err)
	}
	c.Close()
	// Simulate a crashed compaction: orphan snapshot, meta, segment, temp.
	for _, name := range []string{snapName(9), metaName(9), segmentName(99), "snap-000001.csr.tmp123"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c2, client2 := openAttached(t, dir, Options{}, &mapBackend{n: 10})
	defer c2.Close()
	if got := client2.UniqueQueries(); got != 1 {
		t.Fatalf("replay over debris: unique = %d, want 1", got)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		for _, orphan := range []string{snapName(9), metaName(9), segmentName(99)} {
			if e.Name() == orphan {
				t.Errorf("debris %s survived open", orphan)
			}
		}
		if name := e.Name(); len(name) > 4 && name[len(name)-7:len(name)-3] == ".tmp" {
			t.Errorf("temp debris %s survived open", name)
		}
	}
}

func TestSpeculativeEntriesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	c, client := openAttached(t, dir, Options{}, &mapBackend{n: 100})
	// A speculative (unbilled) fetch record, as the prefetch pool would
	// journal it, followed by close and reopen.
	if err := c.RecordFetch(7, osn.Response{User: 7, Neighbors: []graph.NodeID{8, 9}}, false, ""); err != nil {
		t.Fatalf("RecordFetch: %v", err)
	}
	client.SeedCached(7, []graph.NodeID{8, 9}, false, "")
	c.Close()

	be := &mapBackend{n: 100}
	c2, client2 := openAttached(t, dir, Options{}, be)
	defer c2.Close()
	if got := client2.UniqueQueries(); got != 0 {
		t.Fatalf("speculative replay billed %d unique", got)
	}
	if got := client2.SpeculativeCount(); got != 1 {
		t.Fatalf("SpeculativeCount after reopen = %d, want 1", got)
	}
	// First demand upgrades it: one unique query, zero backend fetches.
	if _, err := client2.NeighborsContext(context.Background(), 7); err != nil {
		t.Fatalf("upgrade query: %v", err)
	}
	if got := client2.UniqueQueries(); got != 1 {
		t.Fatalf("upgrade billed %d, want 1", got)
	}
	if be.fetches != 0 {
		t.Fatalf("upgrade hit the backend %d times", be.fetches)
	}
	c2.Close()
	// And the upgrade itself is durable.
	c3, client3 := openAttached(t, dir, Options{}, &mapBackend{n: 100})
	defer c3.Close()
	if got := client3.UniqueQueries(); got != 1 {
		t.Fatalf("replayed upgrade: unique = %d, want 1", got)
	}
	if got := client3.SpeculativeCount(); got != 0 {
		t.Fatalf("replayed upgrade left %d speculative", got)
	}
}

func TestAttachGuards(t *testing.T) {
	dir := t.TempDir()
	c, client := openAttached(t, dir, Options{}, &mapBackend{n: 10})
	defer c.Close()
	if err := c.Attach(osn.NewClient(&mapBackend{n: 10})); err == nil {
		t.Fatal("double Attach succeeded")
	}
	_ = client

	dir2 := t.TempDir()
	c2, err := Open(dir2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	dirty := osn.NewClient(&mapBackend{n: 10})
	if _, err := dirty.NeighborsContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := c2.Attach(dirty); err == nil {
		t.Fatal("Attach to a non-empty client succeeded")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for i := 0; i < 3; i++ {
		want := []byte(fmt.Sprintf("generation %d", i))
		if err := WriteFileAtomic(path, want, 0o644); err != nil {
			t.Fatalf("WriteFileAtomic: %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read back %q, err %v", got, err)
		}
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

// TestManifestNamesStayInsideDir: recovery opens the files the manifest
// names and the next compaction removes them, so a manifest naming a
// generation's files by any path but their own — here one outside the cache
// directory — must be refused at open, and the outside file left alone.
func TestManifestNamesStayInsideDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	c, client := openAttached(t, dir, Options{CompactSegments: -1}, &mapBackend{n: 10})
	if _, err := client.NeighborsContext(context.Background(), 1); err != nil {
		t.Fatalf("query: %v", err)
	}
	if err := c.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	c.Close()

	outside := filepath.Join(root, snapName(1))
	if err := os.Rename(filepath.Join(dir, snapName(1)), outside); err != nil {
		t.Fatal(err)
	}
	man, ok, err := loadManifest(dir)
	if err != nil || !ok || man.Gen != 1 {
		t.Fatalf("loadManifest = %+v, %v, %v", man, ok, err)
	}
	man.Snapshot = filepath.Join("..", snapName(1))
	if err := saveManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if c2, err := Open(dir, Options{CompactSegments: -1}); err == nil {
		c2.Close()
		t.Fatalf("Open accepted a manifest naming snapshot %q", man.Snapshot)
	}
	if _, err := os.Stat(outside); err != nil {
		t.Errorf("file outside the cache directory: %v", err)
	}
}
