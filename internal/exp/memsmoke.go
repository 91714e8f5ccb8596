package exp

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"rewire/internal/core"
	"rewire/internal/gen"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

// MemSmokeConfig controls the memory-footprint smoke test: generate a
// million-node heavy-tailed graph into CSR form, stand up a zero-latency
// provider over it, run a k-walker fleet through the client cache,
// and fail if the post-GC heap exceeds the budget. CI runs it under a fixed
// GOMEMLIMIT, so a storage-layer memory regression either trips the explicit
// LimitBytes check or thrashes GC hard enough to blow the job's time budget
// — both loud.
type MemSmokeConfig struct {
	// Nodes is the graph size (default one million).
	Nodes int
	// EdgesPerNode is the Barabási–Albert attachment count m (default 8,
	// ~8M edges at the default Nodes).
	EdgesPerNode int
	// FleetK is the walker-fleet size (default 16).
	FleetK int
	// Samples is the fleet's partitioned step budget (default 100k).
	Samples int
	// LimitBytes fails the smoke when the post-walk, post-GC heap exceeds
	// it (0 = report only). The default, 400 MiB, is ~4x the CSR footprint
	// of the default graph — headroom for the generator's transient state
	// and the client cache, none for a return to per-node slice storage.
	LimitBytes uint64
}

// DefaultMemSmokeConfig is what CI runs.
func DefaultMemSmokeConfig() MemSmokeConfig {
	return MemSmokeConfig{
		Nodes:        1_000_000,
		EdgesPerNode: 8,
		FleetK:       16,
		Samples:      100_000,
		LimitBytes:   400 << 20,
	}
}

// MemSmokeResult reports the smoke's measurements.
type MemSmokeResult struct {
	Nodes, Edges   int
	GraphBytes     int // CSR arrays only
	HeapAfterBuild uint64
	HeapAfterWalk  uint64
	BuildWall      time.Duration
	WalkWall       time.Duration
	Samples        int
	UniqueQueries  int64
	LimitBytes     uint64
}

// MemSmoke builds the graph and runs the fleet, returning an error when the
// heap budget is exceeded.
func MemSmoke(cfg MemSmokeConfig, seed uint64) (*MemSmokeResult, error) {
	if cfg.Nodes <= 0 {
		cfg = DefaultMemSmokeConfig()
	}
	res := &MemSmokeResult{LimitBytes: cfg.LimitBytes}

	t0 := time.Now()
	g := gen.BarabasiAlbert(cfg.Nodes, cfg.EdgesPerNode, rng.New(seed))
	res.BuildWall = time.Since(t0)
	res.Nodes = g.NumNodes()
	res.Edges = g.NumEdges()
	res.GraphBytes = g.FootprintBytes()
	res.HeapAfterBuild = heapNow()

	svc := osn.NewService(g, nil, osn.Config{})
	client := osn.NewClient(svc)
	r := rng.New(seed + 1)
	starts := core.SpreadStarts(cfg.FleetK, g.NumNodes(), r)
	fleet := walk.NewFleetSimple(client, starts, r)
	t1 := time.Now()
	samples := fleet.SamplesPartitioned(cfg.Samples)
	res.WalkWall = time.Since(t1)
	res.Samples = len(samples)
	res.UniqueQueries = client.UniqueQueries()
	res.HeapAfterWalk = heapNow()
	// Keep the graph and the populated cache live past the heap read —
	// without this the collector (correctly) deems them dead and the
	// measurement reports an empty heap.
	runtime.KeepAlive(g)
	runtime.KeepAlive(client)

	if res.Samples != cfg.Samples {
		return res, fmt.Errorf("memory smoke: fleet drew %d samples, want %d", res.Samples, cfg.Samples)
	}
	if cfg.LimitBytes > 0 && res.HeapAfterWalk > cfg.LimitBytes {
		return res, fmt.Errorf("memory smoke: post-walk heap %s exceeds the %s budget",
			mib(res.HeapAfterWalk), mib(cfg.LimitBytes))
	}
	return res, nil
}

// heapNow returns the live heap after a forced collection.
func heapNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mib(b uint64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }

// Render writes the smoke report.
func (r *MemSmokeResult) Render(w io.Writer) {
	fmt.Fprintf(w, "graph: %d nodes, %d edges — CSR footprint %s (built in %v)\n",
		r.Nodes, r.Edges, mib(uint64(r.GraphBytes)), r.BuildWall.Round(time.Millisecond))
	fmt.Fprintf(w, "heap after build: %s\n", mib(r.HeapAfterBuild))
	fmt.Fprintf(w, "fleet walk: %d samples, %d unique queries in %v\n",
		r.Samples, r.UniqueQueries, r.WalkWall.Round(time.Millisecond))
	budget := "report-only"
	if r.LimitBytes > 0 {
		budget = mib(r.LimitBytes)
	}
	fmt.Fprintf(w, "heap after walk: %s (budget %s)\n", mib(r.HeapAfterWalk), budget)
}
