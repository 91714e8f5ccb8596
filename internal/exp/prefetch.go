package exp

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"rewire/internal/core"
	"rewire/internal/dataset"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

// Prefetch strategy names accepted by PrefetchExpConfig.Strategies and the
// mto-bench -prefetch flag.
const (
	PrefetchNone     = "none"
	PrefetchNextHop  = "nexthop"
	PrefetchFrontier = "frontier"
)

// PrefetchExpConfig controls the prefetch-scaling measurement: the same
// fixed-seed workloads run once per strategy, so every wall-clock difference
// is attributable to speculation — trajectories and unique-query bills are
// identical by construction (speculative responses are invisible until
// demanded).
type PrefetchExpConfig struct {
	// K is the SRW fleet size (partitioned budget, so runs are
	// deterministic).
	K int
	// Samples is the fleet's total sample budget.
	Samples int
	// MTOSteps is the single-walker MTO workload length.
	MTOSteps int
	// Latency is the real (goroutine-blocking) round-trip per unique query.
	Latency time.Duration
	// Workers / Depth / Queue configure the client's prefetch pool.
	Workers int
	Depth   int
	Queue   int
	// Strategies restricts the fleet rows (nil = all three).
	Strategies []string
}

// DefaultPrefetchExpConfig measures at a budget large enough for stable
// timings with a 1ms simulated round-trip.
func DefaultPrefetchExpConfig() PrefetchExpConfig {
	return PrefetchExpConfig{
		K: 4, Samples: 40000, MTOSteps: 8000, Latency: time.Millisecond,
		Workers: 32, Depth: 2, Queue: 8192,
	}
}

// QuickPrefetchExpConfig is the reduced-scale variant for smoke runs.
func QuickPrefetchExpConfig() PrefetchExpConfig {
	return PrefetchExpConfig{
		K: 4, Samples: 4000, MTOSteps: 1500, Latency: 200 * time.Microsecond,
		Workers: 32, Depth: 2, Queue: 8192,
	}
}

// PrefetchRow is one (workload, strategy) measurement.
type PrefetchRow struct {
	Workload string
	Strategy string
	Wall     time.Duration
	// Speedup is wall-clock relative to the same workload's no-prefetch row.
	Speedup float64
	// Unique is the paper's cost metric — identical across strategies.
	Unique int64
	// ServiceQueries counts every provider round-trip, speculative included.
	ServiceQueries int64
	Stats          osn.PrefetchStats
}

// PrefetchResult collects all rows for one dataset.
type PrefetchResult struct {
	Dataset    string
	Cfg        PrefetchExpConfig
	GoMaxProcs int
	Rows       []PrefetchRow
}

// fleetStrategy builds the per-member Prefetcher factory for a named
// strategy (nil for none).
func fleetStrategy(name string, client *osn.Client) func() walk.Prefetcher {
	switch name {
	case PrefetchNextHop:
		return func() walk.Prefetcher { return walk.NewNextHop(client) }
	case PrefetchFrontier:
		return func() walk.Prefetcher { return walk.NewFrontier(client) }
	default:
		return nil
	}
}

// prefetchPool derives the pool config for one run.
func (cfg PrefetchExpConfig) pool() osn.PrefetchConfig {
	return osn.PrefetchConfig{Workers: cfg.Workers, Depth: cfg.Depth, Queue: cfg.Queue}
}

// RunPrefetchFleet measures one SRW-fleet strategy row.
func RunPrefetchFleet(ds dataset.Dataset, cfg PrefetchExpConfig, strategy string, seed uint64) PrefetchRow {
	svc := osn.NewService(ds.Graph, nil, osn.Config{RealLatency: cfg.Latency})
	var client *osn.Client
	if strategy == PrefetchNone {
		client = osn.NewClient(svc)
	} else {
		client = osn.NewPrefetchingClient(svc, cfg.pool())
	}
	starts := core.SpreadStarts(cfg.K, ds.Graph.NumNodes(), rng.New(seed))
	fleet := walk.NewFleetSimple(client, starts, rng.New(seed+1))
	if mk := fleetStrategy(strategy, client); mk != nil {
		fleet = fleet.Prefetched(mk)
	}
	t0 := time.Now()
	fleet.SamplesPartitioned(cfg.Samples)
	wall := time.Since(t0)
	client.StopPrefetch()
	return PrefetchRow{
		Workload:       fmt.Sprintf("SRW fleet k=%d", cfg.K),
		Strategy:       strategy,
		Wall:           wall,
		Unique:         client.UniqueQueries(),
		ServiceQueries: svc.TotalQueries(),
		Stats:          client.PrefetchStats(),
	}
}

// RunPrefetchMTO measures the single-walker MTO workload with or without
// pivot-candidate prefetch.
func RunPrefetchMTO(ds dataset.Dataset, cfg PrefetchExpConfig, prefetch bool, seed uint64) PrefetchRow {
	svc := osn.NewService(ds.Graph, nil, osn.Config{RealLatency: cfg.Latency})
	var client *osn.Client
	strategy := PrefetchNone
	sCfg := core.DefaultConfig()
	if prefetch {
		client = osn.NewPrefetchingClient(svc, cfg.pool())
		sCfg.Prefetch = true
		strategy = "pivot"
	} else {
		client = osn.NewClient(svc)
	}
	start := graph.NodeID(rng.New(seed).Intn(ds.Graph.NumNodes()))
	s := core.NewSampler(client, start, sCfg, rng.New(seed+1))
	t0 := time.Now()
	walk.Run(s, cfg.MTOSteps)
	wall := time.Since(t0)
	client.StopPrefetch()
	return PrefetchRow{
		Workload:       "MTO single",
		Strategy:       strategy,
		Wall:           wall,
		Unique:         client.UniqueQueries(),
		ServiceQueries: svc.TotalQueries(),
		Stats:          client.PrefetchStats(),
	}
}

// PrefetchScaling measures every configured strategy against its
// no-prefetch reference on one dataset.
func PrefetchScaling(ds dataset.Dataset, cfg PrefetchExpConfig, seed uint64) *PrefetchResult {
	res := &PrefetchResult{Dataset: ds.Name, Cfg: cfg, GoMaxProcs: runtime.GOMAXPROCS(0)}
	strategies := cfg.Strategies
	if strategies == nil {
		strategies = []string{PrefetchNone, PrefetchNextHop, PrefetchFrontier}
	}
	var fleetRef time.Duration
	for _, st := range strategies {
		row := RunPrefetchFleet(ds, cfg, st, seed)
		if st == PrefetchNone {
			fleetRef = row.Wall
		}
		if fleetRef > 0 && row.Wall > 0 {
			row.Speedup = float64(fleetRef) / float64(row.Wall)
		}
		res.Rows = append(res.Rows, row)
	}
	mtoOff := RunPrefetchMTO(ds, cfg, false, seed)
	mtoOff.Speedup = 1
	mtoOn := RunPrefetchMTO(ds, cfg, true, seed)
	if mtoOn.Wall > 0 {
		mtoOn.Speedup = float64(mtoOff.Wall) / float64(mtoOn.Wall)
	}
	res.Rows = append(res.Rows, mtoOff, mtoOn)
	return res
}

// Render writes the paper-style aligned table.
func (r *PrefetchResult) Render(w io.Writer) {
	fmt.Fprintf(w, "dataset: %s, fleet k=%d × %d samples, MTO × %d steps, %v round-trip, pool %d workers depth %d, GOMAXPROCS=%d\n\n",
		r.Dataset, r.Cfg.K, r.Cfg.Samples, r.Cfg.MTOSteps, r.Cfg.Latency,
		r.Cfg.Workers, r.Cfg.Depth, r.GoMaxProcs)
	t := &Table{Header: []string{"workload", "strategy", "wall", "speedup", "unique queries", "service queries", "prefetched", "dropped", "unused"}}
	for _, row := range r.Rows {
		t.AddRow(
			row.Workload,
			row.Strategy,
			row.Wall.Round(time.Millisecond).String(),
			f2(row.Speedup)+"x",
			itoa(row.Unique),
			itoa(row.ServiceQueries),
			itoa(row.Stats.Fetched),
			itoa(row.Stats.Dropped),
			itoa(row.Stats.Unused),
		)
	}
	t.Render(w)
}
