// Command mto-bench reproduces the paper's tables and figures. Each
// experiment prints a paper-shaped table; -full selects paper scale
// (default: quick scale for smoke runs).
//
// Usage:
//
//	mto-bench -exp all -full
//	mto-bench -exp fig7 -dataset "Slashdot B" -seed 7
//	mto-bench -exp prefetch -prefetch frontier -prefetch-depth 2
//	mto-bench -exp bench -json bench/run.json   # CI bench-gate input
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"rewire/internal/benchcmp"
	"rewire/internal/dataset"
	"rewire/internal/exp"
)

// prefetchFlags carries the -prefetch* tuning into the prefetch experiment.
type prefetchFlags struct {
	strategy string
	depth    int
	workers  int
}

func main() {
	var (
		which    = flag.String("exp", "all", "experiment: table1|running|fig7|fig8|fig9|fig10|fig11|theorem6|fleet|prefetch|contention|batching|all, or bench/memsmoke/snapcold/warmstart (standalone CI workloads, not part of all)")
		full     = flag.Bool("full", false, "run at full paper scale (slower)")
		seed     = flag.Uint64("seed", 1, "master random seed")
		dataset  = flag.String("dataset", "", "restrict fig7 to one dataset (default: all three)")
		jsonOut  = flag.String("json", "", "write machine-readable results (only with -exp bench)")
		strategy = flag.String("prefetch", "all", "prefetch strategies for -exp prefetch: all|none|nexthop|frontier")
		depth    = flag.Int("prefetch-depth", 0, "prefetch pool recursive lookahead depth (0 = config default)")
		workers  = flag.Int("prefetch-workers", 0, "prefetch pool workers (0 = config default)")
	)
	flag.Parse()
	pf := prefetchFlags{strategy: *strategy, depth: *depth, workers: *workers}
	if err := run(*which, *full, *seed, *dataset, *jsonOut, pf); err != nil {
		fmt.Fprintln(os.Stderr, "mto-bench:", err)
		os.Exit(1)
	}
}

func run(which string, full bool, seed uint64, dsName, jsonOut string, pf prefetchFlags) error {
	if jsonOut != "" && which != "bench" {
		return fmt.Errorf("-json requires -exp bench")
	}
	out := os.Stdout
	section := func(title string) {
		fmt.Fprintf(out, "\n=== %s ===\n\n", title)
	}
	all := which == "all"
	ctx := context.Background()

	if all || which == "table1" {
		section("Table I — datasets")
		exp.Table1(full, diameterSamples(full), seed).Render(out)
	}
	if all || which == "running" {
		section("Running example — barbell rewiring (§II–III)")
		res, err := exp.RunningExample(seed)
		if err != nil {
			return err
		}
		res.Render(out)
	}
	if all || which == "theorem6" {
		section("Theorem 6 — latent-space removal bound (§IV-B)")
		cfg := exp.QuickTheorem6Config()
		if full {
			cfg = exp.DefaultTheorem6Config()
		}
		res, err := exp.Theorem6(cfg, seed)
		if err != nil {
			return err
		}
		res.Render(out)
	}
	if all || which == "fig7" {
		cfg := exp.QuickFig7Config()
		if full {
			cfg = exp.DefaultFig7Config()
		}
		for _, ds := range dataset.All(full) {
			if dsName != "" && ds.Name != dsName {
				continue
			}
			section(fmt.Sprintf("Fig 7 — bias vs query cost (%s)", ds.Name))
			res, err := exp.Fig7(ctx, ds, cfg, seed)
			if err != nil {
				return err
			}
			res.Render(out)
		}
	}
	if all || which == "fig8" {
		section("Fig 8 — KL divergence and query cost, SRW vs MTO")
		cfg := exp.QuickFig8Config()
		if full {
			cfg = exp.DefaultFig8Config()
		}
		res, err := exp.Fig8(ctx, dataset.All(full), cfg, seed)
		if err != nil {
			return err
		}
		res.Render(out)
	}
	if all || which == "fig9" {
		section("Fig 9 — Geweke threshold sweep (Slashdot B)")
		cfg := exp.QuickFig9Config()
		if full {
			cfg = exp.DefaultFig9Config()
		}
		ds := dataset.ByName("Slashdot B", full)
		res, err := exp.Fig9(ctx, *ds, cfg, seed)
		if err != nil {
			return err
		}
		res.Render(out)
	}
	if all || which == "fig10" {
		section("Fig 10 — latent-space mixing times")
		cfg := exp.QuickFig10Config()
		if full {
			cfg = exp.DefaultFig10Config()
		}
		res, err := exp.Fig10(ctx, cfg, seed)
		if err != nil {
			return err
		}
		res.Render(out)
	}
	if all || which == "fig11" {
		section("Fig 11 — Google Plus stand-in")
		cfg := exp.QuickFig11Config()
		if full {
			cfg = exp.DefaultFig11Config()
		}
		res, err := exp.Fig11(ctx, full, cfg, seed)
		if err != nil {
			return err
		}
		res.Render(out)
	}
	if all || which == "fleet" {
		section("Fleet — concurrent walkers vs sequential round-robin")
		cfg := exp.QuickFleetConfig()
		if full {
			cfg = exp.DefaultFleetConfig()
		}
		target, err := pickDataset(dsName, full)
		if err != nil {
			return err
		}
		exp.FleetScaling(target, cfg, seed).Render(out)
	}
	if all || which == "prefetch" {
		section("Prefetch — asynchronous speculative pipeline")
		cfg := exp.QuickPrefetchExpConfig()
		if full {
			cfg = exp.DefaultPrefetchExpConfig()
		}
		if pf.depth > 0 {
			cfg.Depth = pf.depth
		}
		if pf.workers > 0 {
			cfg.Workers = pf.workers
		}
		switch pf.strategy {
		case "", "all":
		case exp.PrefetchNone, exp.PrefetchNextHop, exp.PrefetchFrontier:
			// Always keep the no-prefetch reference so speedups are defined.
			cfg.Strategies = []string{exp.PrefetchNone}
			if pf.strategy != exp.PrefetchNone {
				cfg.Strategies = append(cfg.Strategies, pf.strategy)
			}
		default:
			return fmt.Errorf("unknown -prefetch strategy %q", pf.strategy)
		}
		target, err := pickDataset(dsName, full)
		if err != nil {
			return err
		}
		exp.PrefetchScaling(target, cfg, seed).Render(out)
	}
	if all || which == "contention" {
		section("Contention — default lock stripes vs a single stripe (lock-free hits in both)")
		cfg := exp.QuickContentionConfig()
		if full {
			cfg = exp.DefaultContentionConfig()
		}
		target, err := pickDataset(dsName, full)
		if err != nil {
			return err
		}
		exp.ContentionScaling(target, cfg, seed).Render(out)
	}
	if all || which == "batching" {
		section("Batching — demand-coalescing dispatch over a serialized HTTP provider")
		cfg := exp.QuickBatchingConfig()
		if full {
			cfg = exp.DefaultBatchingConfig()
		}
		target, err := pickDataset(dsName, full)
		if err != nil {
			return err
		}
		res, err := exp.BatchingScaling(ctx, target, cfg, seed)
		if err != nil {
			return err
		}
		res.Render(out)
	}
	if which == "memsmoke" {
		// Standalone like bench: a CI guard, not a paper artifact. Run it
		// under a fixed GOMEMLIMIT to turn a storage-layer memory regression
		// into a loud failure.
		section("Memory smoke — 1M-node CSR graph + client-cache fleet walk")
		res, err := exp.MemSmoke(exp.DefaultMemSmokeConfig(), seed)
		if res != nil {
			res.Render(out)
		}
		if err != nil {
			return err
		}
	}
	if which == "snapcold" {
		// Standalone: the snapshot backend's cold path in isolation (the
		// bench suite's SnapshotOpenCold row runs the same workload).
		section("Snapshot cold open — CSR snapshot open + 10k-step walk")
		ds, _ := pickDataset("", full)
		row, err := exp.RunSnapshotCold(ctx, ds, 10_000, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "dataset: %s (%d nodes, %d edges)\nopen+walk wall: %s\nunique queries: %d\n",
			ds.Name, ds.Graph.NumNodes(), ds.Graph.NumEdges(), row.Wall, row.Unique)
	}
	if which == "warmstart" {
		// Standalone: the durable cache's cold-vs-reopen path in isolation
		// (the bench suite's DurableColdCrawl/DurableWarmCrawl rows run the
		// same workload).
		section("Durable warm start — cold crawl vs reopened-cache crawl")
		ds, _ := pickDataset("", full)
		row, err := exp.RunWarmStart(ds, 10_000, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "dataset: %s (%d nodes, %d edges)\ncold crawl wall: %s (%d unique queries, all WAL-persisted)\nwarm crawl wall: %s (%d recovered, %d newly billed)\n",
			ds.Name, ds.Graph.NumNodes(), ds.Graph.NumEdges(),
			row.ColdWall, row.ColdUnique, row.WarmWall, row.Recovered, row.WarmNew)
	}
	if which == "bench" {
		section("Bench suite — deterministic CI gate workloads")
		suite, err := exp.BenchSuite(ctx, seed)
		if err != nil {
			return err
		}
		renderSuite(out, suite)
		if jsonOut != "" {
			if err := benchcmp.Save(jsonOut, suite); err != nil {
				return err
			}
			fmt.Fprintf(out, "\nwrote %s\n", jsonOut)
		}
	}
	if !all {
		switch which {
		case "table1", "running", "fig7", "fig8", "fig9", "fig10", "fig11", "theorem6", "fleet", "prefetch", "contention", "batching", "bench", "memsmoke", "snapcold", "warmstart":
		default:
			return fmt.Errorf("unknown experiment %q", which)
		}
	}
	return nil
}

// renderSuite prints the bench suite as an aligned table.
func renderSuite(out *os.File, suite benchcmp.Suite) {
	fmt.Fprintf(out, "seed %d\n\n", suite.Seed)
	t := &exp.Table{Header: []string{"benchmark", "wall", "samples", "queries", "speedup", "allocs/op"}}
	for _, r := range suite.Results {
		speedup := "-"
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		allocs := "-"
		if r.WallNS == 0 {
			// Pure-counter rows (the steady-state allocation gates) carry no
			// wall-clock; for them allocs/op is the measurement.
			allocs = fmt.Sprintf("%.2f", r.AllocsPerOp)
		}
		t.AddRow(r.Name, fmt.Sprintf("%dms", r.WallNS/1e6), fmt.Sprintf("%d", r.Samples),
			fmt.Sprintf("%d", r.Queries), speedup, allocs)
	}
	t.Render(out)
}

func diameterSamples(full bool) int {
	if full {
		return 200
	}
	return 60
}

// pickDataset returns the named preset, Epinions when name is empty,
// building only that one.
func pickDataset(name string, full bool) (dataset.Dataset, error) {
	if name == "" {
		name = "Epinions"
	}
	d := dataset.ByName(name, full)
	if d == nil {
		return dataset.Dataset{}, fmt.Errorf("unknown dataset %q", name)
	}
	return *d, nil
}
