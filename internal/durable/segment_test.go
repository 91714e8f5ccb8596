package durable

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// activeSegment returns the path and bytes of dir's active WAL segment, as
// the manifest names it.
func activeSegment(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	man, ok, err := loadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("loading manifest: ok=%v err=%v", ok, err)
	}
	path := filepath.Join(dir, segmentName(man.Segments[len(man.Segments)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading active segment: %v", err)
	}
	return path, data
}

// TestSegmentWritePathMatchesMapped appends the same frames through a mapped
// segment and through the write path (the only path off linux), across a
// growth of the mapping, and checks that both close to the same bytes: the
// frames and nothing after them.
func TestSegmentWritePathMatchesMapped(t *testing.T) {
	dir := t.TempDir()
	var frames [][]byte
	for i := 0; i < 40; i++ {
		nbrs := make([]graph.NodeID, 100*i)
		for j := range nbrs {
			nbrs[j] = graph.NodeID(j * 7919)
		}
		frames = append(frames, encodeFrame(nil, Record{Type: recFetch, User: graph.NodeID(i), Billed: true, Neighbors: nbrs}))
	}
	var want []byte
	for _, f := range frames {
		want = append(want, f...)
	}
	for i, mapped := range []bool{true, false} {
		path := filepath.Join(dir, segmentName(uint64(i+1)))
		s, size, err := openSegment(path, true, 1<<10)
		if err != nil {
			t.Fatalf("openSegment: %v", err)
		}
		if size != 0 {
			t.Fatalf("fresh segment size = %d", size)
		}
		if !mapped {
			if s.data != nil {
				unmapFile(s.data)
				s.data = nil
			}
			if err := s.f.Truncate(0); err != nil {
				t.Fatal(err)
			}
		}
		if mapped && runtime.GOOS == "linux" && s.data == nil {
			t.Fatal("active segment not mapped on linux")
		}
		var off int64
		for _, f := range frames {
			if err := s.writeAt(f, off); err != nil {
				t.Fatalf("mapped=%v: writeAt %d: %v", mapped, off, err)
			}
			off += int64(len(f))
		}
		if err := s.close(off); err != nil {
			t.Fatalf("mapped=%v: close: %v", mapped, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("mapped=%v: closed segment is %d bytes, differs from the %d bytes of frames", mapped, len(got), len(want))
		}
	}
}

// TestRotateFailureIsSticky blocks the next segment's path with a directory,
// so Compact's rotation seals the active segment and then cannot open its
// successor. The failure must be sticky: every later append returns that very
// error (no append reaches the sealed, closed segment), Close still succeeds,
// and a reopen recovers everything appended before the failure.
func TestRotateFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	c, client := openAttached(t, dir, Options{CompactSegments: -1}, &mapBackend{n: 100})
	ctx := osn.WithTenant(context.Background(), "t")
	for v := graph.NodeID(0); v < 10; v++ {
		if _, err := client.NeighborsContext(ctx, v); err != nil {
			t.Fatalf("query %d: %v", v, err)
		}
	}
	want := client.UniqueQueries()
	if err := os.Mkdir(filepath.Join(dir, segmentName(c.man.NextSeq)), 0o755); err != nil {
		t.Fatal(err)
	}
	cerr := c.Compact()
	if cerr == nil {
		t.Fatal("Compact rotated into a directory")
	}
	for i := 0; i < 3; i++ {
		if err := c.RecordFetch(50, osn.Response{Neighbors: []graph.NodeID{1}}, true, "t"); err != cerr {
			t.Fatalf("append %d after the failed rotation = %v, want the rotation's error %v", i, err, cerr)
		}
	}
	if err := c.RecordBudget(7); err != cerr {
		t.Fatalf("budget append after the failed rotation = %v, want %v", err, cerr)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after the failed rotation: %v", err)
	}
	c2, client2 := openAttached(t, dir, Options{CompactSegments: -1}, &mapBackend{n: 100})
	defer c2.Close()
	if got := client2.UniqueQueries(); got != want {
		t.Fatalf("reopen recovered %d unique queries, want %d", got, want)
	}
}

// TestTruncatedSegmentFaultIsSticky truncates the active segment underneath
// an open cache. On linux the next append stores into a mapped page past the
// end of the file, which faults; the fault must come back as an error, not
// kill the process, and every later append must return that same error.
func TestTruncatedSegmentFaultIsSticky(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the active segment is mapped on linux only")
	}
	dir := t.TempDir()
	c, err := Open(dir, Options{CompactSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp := osn.Response{Neighbors: []graph.NodeID{1, 2, 3}}
	if err := c.RecordFetch(1, resp, true, ""); err != nil {
		t.Fatalf("first append: %v", err)
	}
	path, _ := activeSegment(t, dir)
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	ferr := c.RecordFetch(2, resp, true, "")
	if ferr == nil {
		t.Fatal("append into a truncated mapping succeeded")
	}
	for i := 0; i < 3; i++ {
		if err := c.RecordFetch(graph.NodeID(3+i), resp, true, ""); err != ferr {
			t.Fatalf("append %d after the fault = %v, want %v", i, err, ferr)
		}
	}
	if err := c.RecordUpgrade(1, ""); err != ferr {
		t.Fatalf("upgrade after the fault = %v, want %v", err, ferr)
	}
	if err := c.Compact(); !errors.Is(err, ferr) {
		t.Fatalf("Compact after the fault = %v, want %v", err, ferr)
	}
}
