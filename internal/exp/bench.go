package exp

import (
	"context"
	"fmt"
	"time"

	"rewire/internal/benchcmp"
	"rewire/internal/dataset"
)

// BenchSuite runs the deterministic workloads behind the CI bench-gate and
// returns their machine-readable measurements (cmd/mto-bench -exp bench
// -json). Every workload is schedule-independent — partitioned fleet
// budgets, single samplers — so the unique-query counters are exact
// functions of the seed and can be gated tightly; wall-clock enters only
// through in-process speedup ratios, which transfer across machines because
// the runs are latency-dominated (see internal/benchcmp). A non-nil error
// means a workload could not run at all (e.g. the snapshot round-trip
// failed) — the partial suite is still returned for diagnosis.
func BenchSuite(ctx context.Context, seed uint64) (benchcmp.Suite, error) {
	ds := dataset.Small()[0]
	cfg := QuickPrefetchExpConfig()
	suite := benchcmp.Suite{Schema: benchcmp.Schema, Seed: seed}

	// Steady-state allocation counters: with the cache warm and rewiring at
	// its fixpoint, a walk step must not allocate. Allocations, like query
	// counters, are machine-portable — the baseline gates them at zero — and
	// they are measured first, before the latency workloads fill the process
	// with worker pools, mmaps, and finalizers whose background churn would
	// taint the malloc counter.
	alloc := SteadyStateAllocs(ds, seed)
	suite.Results = append(suite.Results,
		benchcmp.Result{Name: "WalkSteadySRWAllocs", Samples: allocMeasureRuns, AllocsPerOp: alloc.SRW},
		benchcmp.Result{Name: "WalkSteadyMTOAllocs", Samples: allocMeasureRuns, AllocsPerOp: alloc.MTO},
	)
	add := func(name string, samples int, row PrefetchRow, ref time.Duration) time.Duration {
		r := benchcmp.Result{
			Name:    name,
			WallNS:  row.Wall.Nanoseconds(),
			Samples: samples,
			Queries: row.Unique,
		}
		if ref > 0 && row.Wall > 0 {
			r.Speedup = float64(ref) / float64(row.Wall)
		}
		suite.Results = append(suite.Results, r)
		return row.Wall
	}

	fleetRef := add("FleetPrefetchOff", cfg.Samples, RunPrefetchFleet(ds, cfg, PrefetchNone, seed), 0)
	add("FleetPrefetchNextHop", cfg.Samples, RunPrefetchFleet(ds, cfg, PrefetchNextHop, seed), fleetRef)
	add("FleetPrefetchFrontier", cfg.Samples, RunPrefetchFleet(ds, cfg, PrefetchFrontier, seed), fleetRef)

	mtoRef := add("MTOPivotPrefetchOff", cfg.MTOSteps, RunPrefetchMTO(ds, cfg, false, seed), 0)
	add("MTOPivotPrefetchOn", cfg.MTOSteps, RunPrefetchMTO(ds, cfg, true, seed), mtoRef)

	// Storage-engine contention: a k=16 zero-latency fleet over a client
	// with one lock stripe versus the default stripe count; cache hits are
	// lock-free in both, so the rows differ only on misses, commits and
	// upgrades. The row names keep their historical Legacy/Sharded labels.
	// Queries are deterministic (partitioned quotas) and identical across
	// stripe counts by construction; the striped row's speedup is gated by a
	// floor in the baseline. The gap is a multicore effect — on a
	// single-core runner the rows tie — so the committed floor is
	// deliberately conservative.
	ccfg := QuickContentionConfig()
	legacy := bestOf(3, func() ContentionRow { return RunContention(ds, 16, 1, ccfg.Samples, seed) })
	suite.Results = append(suite.Results, benchcmp.Result{
		Name:    "ContentionLegacyK16",
		WallNS:  legacy.Wall.Nanoseconds(),
		Samples: ccfg.Samples,
		Queries: legacy.Unique,
	})
	sharded := bestOf(3, func() ContentionRow { return RunContention(ds, 16, ccfg.Shards, ccfg.Samples, seed) })
	shardedRes := benchcmp.Result{
		Name:    "ContentionShardedK16",
		WallNS:  sharded.Wall.Nanoseconds(),
		Samples: ccfg.Samples,
		Queries: sharded.Unique,
	}
	if legacy.Wall > 0 && sharded.Wall > 0 {
		shardedRes.Speedup = float64(legacy.Wall) / float64(sharded.Wall)
	}
	suite.Results = append(suite.Results, shardedRes)

	// Snapshot cold path: open a CSR snapshot and walk 10k steps through the
	// full client stack. The unique-query counter is deterministic and gated;
	// wall-clock (best of 3) is recorded so snapshot-load regressions are
	// visible in the artifact even before they trip anything.
	const snapSamples = 10_000
	snap, err := RunSnapshotCold(ctx, ds, snapSamples, seed)
	for i := 1; i < 3 && err == nil; i++ {
		row, e := RunSnapshotCold(ctx, ds, snapSamples, seed)
		if e != nil {
			err = e
			break
		}
		if row.Wall < snap.Wall {
			snap = row
		}
	}
	if err != nil {
		return suite, fmt.Errorf("exp: SnapshotOpenCold workload failed: %w", err)
	}
	suite.Results = append(suite.Results, benchcmp.Result{
		Name:    "SnapshotOpenCold",
		WallNS:  snap.Wall.Nanoseconds(),
		Samples: snapSamples,
		Queries: snap.Unique,
	})

	// Durable warm start: a cold crawl into a WAL-backed cache directory,
	// then the identical fixed-seed crawl after reopening it. The cold bill
	// is gated within tolerance like any deterministic counter; the warm
	// row's Queries is the bill the reopened crawl added on top of the
	// recovered ledger, gated EXACTLY at zero in the baseline — the
	// durability contract is that a replayed entry is never re-billed.
	const warmSamples = 10_000
	warm, err := RunWarmStart(ds, warmSamples, seed)
	if err != nil {
		return suite, fmt.Errorf("exp: DurableWarmStart workload failed: %w", err)
	}
	suite.Results = append(suite.Results,
		benchcmp.Result{
			Name:    "DurableColdCrawl",
			WallNS:  warm.ColdWall.Nanoseconds(),
			Samples: warmSamples,
			Queries: warm.ColdUnique,
		},
		benchcmp.Result{
			Name:    "DurableWarmCrawl",
			WallNS:  warm.WarmWall.Nanoseconds(),
			Samples: warmSamples,
			Queries: warm.WarmNew,
		},
	)

	// HTTP fleet batching: the same fixed-seed fleet demand over a serialized
	// HTTP provider (one request at a time, fixed service latency), with and
	// without the demand-coalescing middleware. Queries are deterministic and
	// identical across the two rows — coalescing repacks demand, never changes
	// it — and the speedup is the round-trip-count ratio in disguise, so the
	// baseline can put a hard floor under it on any machine.
	bcfg := QuickBatchingConfig()
	httpBest := func(wait time.Duration) (BatchingRow, error) {
		best, err := RunHTTPFleet(ctx, ds, bcfg, wait, seed)
		if err != nil {
			return best, err
		}
		row, err := RunHTTPFleet(ctx, ds, bcfg, wait, seed)
		if err != nil {
			return best, err
		}
		if row.Wall < best.Wall {
			best = row
		}
		return best, nil
	}
	unbatched, err := httpBest(0)
	if err != nil {
		return suite, fmt.Errorf("exp: HTTPFleetUnbatched workload failed: %w", err)
	}
	batched, err := httpBest(bcfg.Waits[len(bcfg.Waits)-1])
	if err != nil {
		return suite, fmt.Errorf("exp: HTTPFleetBatched workload failed: %w", err)
	}
	batchedRes := benchcmp.Result{
		Name:    "HTTPFleetBatchedK16",
		WallNS:  batched.Wall.Nanoseconds(),
		Samples: bcfg.Samples,
		Queries: batched.Unique,
	}
	if unbatched.Wall > 0 && batched.Wall > 0 {
		batchedRes.Speedup = float64(unbatched.Wall) / float64(batched.Wall)
	}
	suite.Results = append(suite.Results,
		benchcmp.Result{
			Name:    "HTTPFleetUnbatchedK16",
			WallNS:  unbatched.Wall.Nanoseconds(),
			Samples: bcfg.Samples,
			Queries: unbatched.Unique,
		},
		batchedRes,
	)
	return suite, nil
}

// bestOf runs f n times and keeps the row with the smallest wall-clock —
// the standard way to de-noise a short benchmark (the minimum is the run
// least disturbed by the scheduler).
func bestOf(n int, f func() ContentionRow) ContentionRow {
	best := f()
	for i := 1; i < n; i++ {
		if row := f(); row.Wall < best.Wall {
			best = row
		}
	}
	return best
}
