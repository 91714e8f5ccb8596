package durable

import (
	"os"
	"path/filepath"
	"testing"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// benchRow is a 40-neighbor row with ids spread over a 200k-node id space,
// the shape of a fetch on the durable-crawl workload's graph.
func benchRow(v graph.NodeID) []graph.NodeID {
	row := make([]graph.NodeID, 40)
	for i := range row {
		row[i] = (v*7919 + graph.NodeID(i)*104729) % 200_000
	}
	return row
}

// BenchmarkAppendFetch measures one WAL append of a 40-neighbor fetch record
// into the active segment, rotations included (compaction off): frame
// encoding plus the copy into the mapped segment, or the write syscall where
// the segment is not mapped.
func BenchmarkAppendFetch(b *testing.B) {
	c, err := Open(b.TempDir(), Options{CompactSegments: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	resp := osn.Response{Neighbors: benchRow(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.RecordFetch(graph.NodeID(i%200_000), resp, true, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompactFold measures one fold of four sealed 4 MiB segments of
// 40-neighbor fetches into a snapshot and meta pair; B/op is what the fold
// allocates.
func BenchmarkCompactFold(b *testing.B) {
	dir := b.TempDir()
	c, err := Open(dir, Options{CompactSegments: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for v := graph.NodeID(0); len(c.man.Segments) < 5; v++ {
		if err := c.RecordFetch(v%200_000, osn.Response{Neighbors: benchRow(v)}, true, ""); err != nil {
			b.Fatal(err)
		}
	}
	sealed := c.man.Segments[:4]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := uint64(i + 1)
		if err := c.fold(gen, sealed, nil, ""); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		os.Remove(filepath.Join(dir, snapName(gen)))
		os.Remove(filepath.Join(dir, metaName(gen)))
		b.StartTimer()
	}
}
