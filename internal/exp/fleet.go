package exp

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"rewire/internal/core"
	"rewire/internal/dataset"
	"rewire/internal/osn"
	"rewire/internal/rng"
)

// FleetConfig controls the fleet-scaling measurement: for each k it runs the
// identical shared-overlay MTO sampling workload twice — sequentially (the
// fleet's members stepped round-robin on one goroutine) and concurrently
// (walk.Fleet, k goroutines) — and reports wall-clock time, speedup, and
// query cost.
type FleetConfig struct {
	// Ks are the fleet sizes to measure.
	Ks []int
	// Samples is the total sample budget shared by each run's members.
	Samples int
	// Latency is the real (goroutine-blocking) round-trip time per unique
	// query, the quantity a concurrent fleet overlaps. 0 measures pure CPU.
	Latency time.Duration
	// Sampler is the MTO configuration every member runs.
	Sampler core.Config
}

// DefaultFleetConfig measures k in {1, 4, 16} at a budget large enough for
// stable timings, with a 1ms simulated-network round-trip per unique query.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{Ks: []int{1, 4, 16}, Samples: 200000, Latency: time.Millisecond, Sampler: core.DefaultConfig()}
}

// QuickFleetConfig is the reduced-scale variant for smoke runs.
func QuickFleetConfig() FleetConfig {
	return FleetConfig{Ks: []int{1, 4, 16}, Samples: 10000, Latency: 200 * time.Microsecond, Sampler: core.DefaultConfig()}
}

// FleetRow is one fleet size's measurements.
type FleetRow struct {
	K             int
	SeqWall       time.Duration
	FleetWall     time.Duration
	Speedup       float64
	SeqQueries    int64
	FleetQueries  int64
	FleetRemovals int
}

// FleetResult collects all rows for one dataset.
type FleetResult struct {
	Dataset    string
	Samples    int
	GoMaxProcs int
	Rows       []FleetRow
}

// FleetScaling measures sequential-vs-concurrent fleet sampling on one
// dataset. Each mode gets a fresh service and client so the budgets are
// independent; starts are identical across modes so both explore from the
// same seeds.
func FleetScaling(ds dataset.Dataset, cfg FleetConfig, seed uint64) *FleetResult {
	res := &FleetResult{Dataset: ds.Name, Samples: cfg.Samples, GoMaxProcs: runtime.GOMAXPROCS(0)}
	svcCfg := osn.Config{RealLatency: cfg.Latency}
	for _, k := range cfg.Ks {
		starts := core.SpreadStarts(k, ds.Graph.NumNodes(), rng.New(seed))

		svcSeq := osn.NewService(ds.Graph, nil, svcCfg)
		clientSeq := osn.NewClient(svcSeq)
		seq, _ := core.NewFleet(clientSeq, starts, cfg.Sampler, rng.New(seed+1))
		members := seq.Members()
		t0 := time.Now()
		for i := 0; i < cfg.Samples; i++ {
			members[i%len(members)].Step()
		}
		seqWall := time.Since(t0)

		svcFl := osn.NewService(ds.Graph, nil, svcCfg)
		clientFl := osn.NewClient(svcFl)
		f, ov := core.NewFleet(clientFl, starts, cfg.Sampler, rng.New(seed+1))
		t1 := time.Now()
		f.Samples(cfg.Samples)
		fleetWall := time.Since(t1)

		row := FleetRow{
			K:             k,
			SeqWall:       seqWall,
			FleetWall:     fleetWall,
			SeqQueries:    clientSeq.UniqueQueries(),
			FleetQueries:  clientFl.UniqueQueries(),
			FleetRemovals: ov.RemovedCount(),
		}
		if fleetWall > 0 {
			row.Speedup = float64(seqWall) / float64(fleetWall)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render writes the paper-style aligned table.
func (r *FleetResult) Render(w io.Writer) {
	fmt.Fprintf(w, "dataset: %s, %d samples per run, GOMAXPROCS=%d\n\n", r.Dataset, r.Samples, r.GoMaxProcs)
	t := &Table{Header: []string{"k", "seq wall", "fleet wall", "speedup", "seq queries", "fleet queries", "fleet removals"}}
	for _, row := range r.Rows {
		t.AddRow(
			itoa(int64(row.K)),
			row.SeqWall.Round(time.Millisecond).String(),
			row.FleetWall.Round(time.Millisecond).String(),
			f2(row.Speedup)+"x",
			itoa(row.SeqQueries),
			itoa(row.FleetQueries),
			itoa(int64(row.FleetRemovals)),
		)
	}
	t.Render(w)
}
