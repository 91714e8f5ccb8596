package exp

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"time"

	"rewire"
	"rewire/internal/dataset"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

// SnapshotColdRow is one cold-open snapshot measurement: wall-clock covers
// OpenSnapshot plus the full walk, so a regression in either the O(1) open
// path or per-row access cost shows up.
type SnapshotColdRow struct {
	Wall time.Duration
	// Unique is the deterministic unique-query bill of the fixed-seed walk.
	Unique int64
}

// RunSnapshotCold serializes ds to a snapshot file, then measures the cold
// path a resumed crawl pays: open the file through the shipped snapshot:
// driver and drive a single SRW walker through `samples` steps over the full
// client stack (lock-free cache, demand billing). The driver's backend goes
// into the client unconverted, so the gate measures the shipped fetch path
// (row clone included), not a cheaper look-alike. The write is setup, not
// measurement. The unique-query bill is a deterministic function of the
// seed — the CI gate pins it.
func RunSnapshotCold(ctx context.Context, ds dataset.Dataset, samples int, seed uint64) (SnapshotColdRow, error) {
	dir, err := os.MkdirTemp("", "rewire-snapbench-*")
	if err != nil {
		return SnapshotColdRow{}, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.csr")
	if err := ds.Graph.WriteSnapshotFile(path); err != nil {
		return SnapshotColdRow{}, err
	}

	t0 := time.Now()
	be, err := rewire.OpenBackend(ctx, "snapshot:"+path)
	if err != nil {
		return SnapshotColdRow{}, err
	}
	if c, ok := be.(io.Closer); ok {
		defer c.Close()
	}
	client := osn.NewClient(be)
	r := rng.New(seed)
	w := walk.NewSimple(client, 0, r.Split())
	for i := 0; i < samples; i++ {
		w.Step()
	}
	return SnapshotColdRow{Wall: time.Since(t0), Unique: client.UniqueQueries()}, nil
}
