package exp

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"rewire/internal/core"
	"rewire/internal/dataset"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

// ContentionConfig controls the storage-contention measurement: k SRW
// walkers on k goroutines hammering one shared client over a ZERO-latency
// service, so there is no round-trip to hide behind and every nanosecond of
// wall-clock is walk arithmetic plus storage-engine locking. Cache hits are
// lock-free at any stripe count, so comparing the client's default lock
// stripes against a single stripe (shards=1) isolates what striping buys on
// the miss, commit and upgrade transitions.
//
// Budgets are partitioned per walker (each member's trajectory depends only
// on its own RNG stream), so the unique-query bill is a deterministic
// function of the seed — the property the CI bench-gate leans on.
type ContentionConfig struct {
	// Ks lists the fleet sizes to measure.
	Ks []int
	// Samples is the total step budget per run, split evenly across walkers.
	Samples int
	// Shards is the striped variant's lock-stripe count (0 = store default).
	Shards int
}

// DefaultContentionConfig measures at a budget big enough for stable
// timings on a many-core machine.
func DefaultContentionConfig() ContentionConfig {
	return ContentionConfig{Ks: []int{1, 4, 16, 64}, Samples: 2_000_000}
}

// QuickContentionConfig is the reduced-scale variant for smoke runs and the
// CI suite.
func QuickContentionConfig() ContentionConfig {
	return ContentionConfig{Ks: []int{1, 4, 16, 64}, Samples: 400_000}
}

// ContentionRow is one (k, lock-stripe count) measurement.
type ContentionRow struct {
	K int
	// Shards is the client's lock-stripe count (1 = a single lock).
	Shards int
	Wall   time.Duration
	// Unique is the deterministic unique-query bill (identical across
	// stripe counts for a fixed seed — striping must never change behavior).
	Unique int64
	// Speedup is wall-clock relative to the single-stripe row at the same k.
	Speedup float64
}

// RunContention measures one row: k SRW walkers with partitioned step
// quotas, each on its own goroutine, over one shared zero-latency client
// with `shards` lock stripes. The walkers step directly — no sample channel, no
// fleet machinery — so the measurement is store pressure, not plumbing.
func RunContention(ds dataset.Dataset, k, shards, samples int, seed uint64) ContentionRow {
	svc := osn.NewService(ds.Graph, nil, osn.Config{})
	client := osn.NewClientShards(svc, shards)
	r := rng.New(seed)
	starts := core.SpreadStarts(k, ds.Graph.NumNodes(), r)
	walkers := make([]*walk.Simple, k)
	for i, s := range starts {
		walkers[i] = walk.NewSimple(client, s, r.Split())
	}
	quota := samples / k
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, w := range walkers {
		wg.Add(1)
		go func(w *walk.Simple) {
			defer wg.Done()
			for j := 0; j < quota; j++ {
				w.Step()
			}
		}(w)
	}
	wg.Wait()
	return ContentionRow{
		K:      k,
		Shards: client.StoreShards(),
		Wall:   time.Since(t0),
		Unique: client.UniqueQueries(),
	}
}

// ContentionResult collects all rows for one dataset.
type ContentionResult struct {
	Dataset    string
	Cfg        ContentionConfig
	GoMaxProcs int
	Rows       []ContentionRow
}

// ContentionScaling measures the single-stripe and default-striped clients
// at every configured fleet size. Striped rows carry Speedup relative to the
// single-stripe row at the same k.
func ContentionScaling(ds dataset.Dataset, cfg ContentionConfig, seed uint64) *ContentionResult {
	res := &ContentionResult{Dataset: ds.Name, Cfg: cfg, GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, k := range cfg.Ks {
		legacy := RunContention(ds, k, 1, cfg.Samples, seed)
		legacy.Speedup = 1
		sharded := RunContention(ds, k, cfg.Shards, cfg.Samples, seed)
		if sharded.Wall > 0 {
			sharded.Speedup = float64(legacy.Wall) / float64(sharded.Wall)
		}
		res.Rows = append(res.Rows, legacy, sharded)
	}
	return res
}

// Render writes the paper-style aligned table.
func (r *ContentionResult) Render(w io.Writer) {
	fmt.Fprintf(w, "dataset: %s, %d steps per run (partitioned), zero-latency source, GOMAXPROCS=%d\n",
		r.Dataset, r.Cfg.Samples, r.GoMaxProcs)
	fmt.Fprintf(w, "cache hits are lock-free in both rows; striped-vs-single gains on misses grow with cores, and on a single-core host the two should tie\n\n")
	t := &Table{Header: []string{"k", "lock stripes", "wall", "throughput", "speedup", "unique queries"}}
	for _, row := range r.Rows {
		layout := fmt.Sprintf("striped/%d", row.Shards)
		if row.Shards == 1 {
			layout = "single/1"
		}
		persec := "-"
		if row.Wall > 0 {
			persec = fmt.Sprintf("%.2fM/s", float64(r.Cfg.Samples)/row.Wall.Seconds()/1e6)
		}
		t.AddRow(
			itoa(int64(row.K)),
			layout,
			row.Wall.Round(time.Millisecond).String(),
			persec,
			f2(row.Speedup)+"x",
			itoa(row.Unique),
		)
	}
	t.Render(w)
}
