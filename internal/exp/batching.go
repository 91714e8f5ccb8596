package exp

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"time"

	"rewire"
	"rewire/internal/dataset"
	"rewire/internal/httpsrc"
)

// BatchingConfig controls the demand-coalescing measurement: a k-walker SRW
// fleet sampling over a real HTTP provider served in-process with Serialize
// on — the server admits one request at a time and each occupies it for
// Latency, so wall-clock is (round-trips × Latency) whatever the client's
// parallelism. That makes the batched-vs-unbatched ratio a direct readout of
// how many round-trips coalescing removed: machine-portable, like every
// latency-dominated ratio the bench gate pins.
//
// Budgets are partitioned per walker, so trajectories — and the unique-query
// bill — are exact functions of the seed. Coalescing must not change them:
// the same fetches ride fewer wires, which is the whole point and the
// invariant the conformance suite proves.
type BatchingConfig struct {
	// K is the fleet size.
	K int
	// Samples is the total sample budget, split evenly across walkers.
	Samples int
	// Latency is the serialized provider's per-request service time.
	Latency time.Duration
	// MaxBatch caps ids per coalesced round-trip.
	MaxBatch int
	// Waits lists the coalescing windows to measure; 0 means batching off.
	Waits []time.Duration
}

// DefaultBatchingConfig measures at a budget big enough for stable ratios.
func DefaultBatchingConfig() BatchingConfig {
	return BatchingConfig{
		K: 16, Samples: 8000, Latency: 500 * time.Microsecond, MaxBatch: 64,
		Waits: []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond},
	}
}

// QuickBatchingConfig is the reduced-scale variant for smoke runs and the CI
// suite.
func QuickBatchingConfig() BatchingConfig {
	return BatchingConfig{
		K: 16, Samples: 2000, Latency: 300 * time.Microsecond, MaxBatch: 64,
		Waits: []time.Duration{0, 2 * time.Millisecond},
	}
}

// BatchingRow is one (coalescing window) measurement.
type BatchingRow struct {
	// Wait is the coalescing window (0 = batching off).
	Wait time.Duration
	Wall time.Duration
	// Unique is the deterministic unique-query bill (identical across
	// windows for a fixed seed — coalescing must never change behavior).
	Unique int64
	// RoundTrips is how many fetches reached the provider stack; IDs is how
	// many ids they carried in total (IDs/RoundTrips = mean batch size).
	RoundTrips int64
	IDs        int64
	// Speedup is wall-clock relative to the unbatched run.
	Speedup float64
}

// RunHTTPFleet measures one row: a k-walker SRW fleet with partitioned
// budgets sampling through the full public stack — HTTP driver, metrics
// middleware, optionally the coalescing middleware — against a serialized
// in-process provider.
func RunHTTPFleet(ctx context.Context, ds dataset.Dataset, cfg BatchingConfig, batchWait time.Duration, seed uint64) (BatchingRow, error) {
	srv := httptest.NewServer(httpsrc.Handler(ds.Graph, httpsrc.ServerOptions{
		Latency:   cfg.Latency,
		Serialize: true,
	}))
	defer srv.Close()

	be, err := rewire.OpenBackend(ctx, srv.URL+"?timeout=30s&backoff=1ms&max_backoff=10ms")
	if err != nil {
		return BatchingRow{}, err
	}
	metrics := &rewire.BackendMetrics{}
	wrapped := rewire.WithMetrics(be, metrics)
	if batchWait > 0 {
		wrapped = rewire.WithBatching(wrapped, rewire.BatchingOptions{
			MaxBatch: cfg.MaxBatch,
			MaxWait:  batchWait,
		})
	}
	prov := rewire.BackendSource(wrapped)
	defer prov.Close()

	sess, err := rewire.NewSession(prov,
		rewire.WithAlgorithm(rewire.AlgSRW),
		rewire.WithFleet(cfg.K),
		rewire.WithSeed(seed),
		rewire.WithPartitionedBudget(true),
	)
	if err != nil {
		return BatchingRow{}, err
	}
	t0 := time.Now()
	if _, err := sess.Samples(ctx, cfg.Samples); err != nil {
		return BatchingRow{}, err
	}
	wall := time.Since(t0)
	snap := metrics.Snapshot()
	return BatchingRow{
		Wait:       batchWait,
		Wall:       wall,
		Unique:     prov.UniqueQueries(),
		RoundTrips: snap.Fetches,
		IDs:        snap.IDs,
	}, nil
}

// BatchingResult collects all rows for one dataset.
type BatchingResult struct {
	Dataset    string
	Cfg        BatchingConfig
	GoMaxProcs int
	Rows       []BatchingRow
}

// BatchingScaling measures every configured coalescing window. Rows carry
// Speedup relative to the unbatched (Wait=0) run.
func BatchingScaling(ctx context.Context, ds dataset.Dataset, cfg BatchingConfig, seed uint64) (*BatchingResult, error) {
	res := &BatchingResult{Dataset: ds.Name, Cfg: cfg, GoMaxProcs: runtime.GOMAXPROCS(0)}
	var ref time.Duration
	for _, wait := range cfg.Waits {
		row, err := RunHTTPFleet(ctx, ds, cfg, wait, seed)
		if err != nil {
			return res, err
		}
		if wait == 0 {
			ref = row.Wall
			row.Speedup = 1
		} else if ref > 0 && row.Wall > 0 {
			row.Speedup = float64(ref) / float64(row.Wall)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the paper-style aligned table.
func (r *BatchingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "dataset: %s, k=%d fleet, %d samples (partitioned), serialized HTTP provider at %s/request, GOMAXPROCS=%d\n",
		r.Dataset, r.Cfg.K, r.Cfg.Samples, r.Cfg.Latency, r.GoMaxProcs)
	fmt.Fprintf(w, "identical unique-query bills across rows: coalescing repacks the same demand onto fewer wires\n\n")
	t := &Table{Header: []string{"window", "wall", "round-trips", "ids/trip", "speedup", "unique queries"}}
	for _, row := range r.Rows {
		window := "off"
		if row.Wait > 0 {
			window = row.Wait.String()
		}
		mean := "-"
		if row.RoundTrips > 0 {
			mean = fmt.Sprintf("%.2f", float64(row.IDs)/float64(row.RoundTrips))
		}
		t.AddRow(
			window,
			row.Wall.Round(time.Millisecond).String(),
			itoa(row.RoundTrips),
			mean,
			f2(row.Speedup)+"x",
			itoa(row.Unique),
		)
	}
	t.Render(w)
}
