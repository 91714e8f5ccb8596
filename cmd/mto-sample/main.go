// Command mto-sample runs one sampling session against a simulated
// restrictive OSN interface and reports the aggregate estimate, its error,
// and the query budget spent — the paper's end-to-end use case in one
// invocation, built entirely on the public rewire SDK.
//
// Usage:
//
//	mto-sample -dataset Epinions -alg MTO -samples 4000
//	mto-sample -graph edges.txt -alg SRW -fleet 8 -timeout 30s
//	mto-sample -alg MTO -budget 2000           # stop at 2000 unique queries
//	mto-sample -source snapshot:crawl.csr -alg MTO
//	mto-sample -source http://host/graph -alg SRW -fleet 8
//	mto-sample -source http://host/graph -cache ./crawlcache  # persist + warm-start
//	mto-sample -source http://host/graph -fleet 8 -batch 64 -batchwait 2ms  # coalesce fleet demand
//
// A -timeout deadline or a -budget cap ends the run early with whatever has
// been sampled: the session is the paper's protocol made interruptible.
// -source opens any registered backend URL (mem:, sim:, http(s)://,
// snapshot:) instead of simulating over a local graph; ground-truth columns
// are skipped because no local topology exists to compare against.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"rewire"
)

func main() {
	var (
		dataset   = flag.String("dataset", "Epinions", "preset dataset: Epinions | 'Slashdot A' | 'Slashdot B' | 'Google Plus'")
		full      = flag.Bool("full", false, "use the full-scale preset")
		file      = flag.String("graph", "", "edge-list file (overrides -dataset)")
		source    = flag.String("source", "", "backend URL (mem:, sim:, http://, snapshot:) — overrides -dataset/-graph/-facebook-limits")
		alg       = flag.String("alg", "MTO", "sampler: SRW|MTO|MTO_RM|MTO_RP|MHRW|RJ")
		fleetK    = flag.Int("fleet", 1, "concurrent walkers sharing the budget and overlay")
		samples   = flag.Int("samples", 4000, "samples after burn-in")
		geweke    = flag.Float64("geweke", 0.1, "Geweke convergence threshold")
		seed      = flag.Uint64("seed", 1, "random seed")
		limitFB   = flag.Bool("facebook-limits", false, "apply the paper's 600/600s quota to the interface")
		timeout   = flag.Duration("timeout", 0, "wall-clock deadline for the whole run (0 = none)")
		budget    = flag.Int64("budget", 0, "unique-query budget (0 = unlimited)")
		cache     = flag.String("cache", "", "durable cache directory: persist every billed fetch and warm-start the next run from it (empty = in-memory only)")
		batchWait = flag.Duration("batchwait", 0, "demand-coalescing window for -source backends: misses arriving within it share one round-trip; an upper bound, since a drain goes as soon as the walkers the last round trip released are back (0 = off unless -batch is set)")
		batchMax  = flag.Int("batch", 0, "max ids per coalesced round-trip (0 = SDK default; enables coalescing when set)")
	)
	flag.Parse()
	if err := run(*dataset, *full, *file, *source, *alg, *fleetK, *samples, *geweke, *seed, *limitFB, *timeout, *budget, *cache, *batchWait, *batchMax); err != nil {
		fmt.Fprintln(os.Stderr, "mto-sample:", err)
		os.Exit(1)
	}
}

// options maps the paper's algorithm names (including the MTO_RM / MTO_RP
// ablations) onto SDK options.
func options(alg string) ([]rewire.Option, error) {
	switch alg {
	case "SRW":
		return []rewire.Option{rewire.WithAlgorithm(rewire.AlgSRW)}, nil
	case "MHRW":
		return []rewire.Option{rewire.WithAlgorithm(rewire.AlgMHRW)}, nil
	case "RJ":
		return []rewire.Option{rewire.WithAlgorithm(rewire.AlgRJ)}, nil
	case "MTO":
		return []rewire.Option{rewire.WithAlgorithm(rewire.AlgMTO)}, nil
	case "MTO_RM":
		return []rewire.Option{rewire.WithAlgorithm(rewire.AlgMTO), rewire.WithReplacement(false)}, nil
	case "MTO_RP":
		return []rewire.Option{rewire.WithAlgorithm(rewire.AlgMTO), rewire.WithRemoval(false)}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", alg)
	}
}

func run(dataset string, full bool, file, source, alg string, fleetK, samples int, geweke float64, seed uint64, limitFB bool, timeout time.Duration, budget int64, cache string, batchWait time.Duration, batchMax int) error {
	coalesce := batchWait > 0 || batchMax > 0
	if coalesce && source == "" {
		return errors.New("-batch/-batchwait coalesce round-trips to a remote backend: they require -source")
	}
	var g *rewire.Graph // nil when -source names an external backend
	var provider *rewire.Provider
	var err error
	switch {
	case source != "":
		openCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		be, oerr := rewire.OpenBackend(openCtx, source)
		cancel()
		if oerr != nil {
			return oerr
		}
		if coalesce {
			be = rewire.WithBatching(be, rewire.BatchingOptions{MaxBatch: batchMax, MaxWait: batchWait})
		}
		provider = rewire.BackendSource(be)
		defer provider.Close()
		dataset = source
	case file != "":
		if g, err = rewire.ReadEdgeListFile(file); err != nil {
			return err
		}
		dataset = file
	default:
		if g, err = rewire.PresetGraph(dataset, full); err != nil {
			return err
		}
	}
	if provider == nil {
		limits := rewire.Limits{}
		if limitFB {
			limits = rewire.FacebookLimits()
		}
		provider = rewire.Simulate(g, limits)
	}
	if budget > 0 {
		provider.SetBudget(budget)
	}
	if cache != "" {
		if err := provider.AttachDurableCache(cache); err != nil {
			return err
		}
		if source == "" {
			// The -source path deferred provider.Close above; the simulated
			// path needs one now that there is a WAL to seal and a flock to
			// release on exit.
			defer provider.Close()
		}
		if st, ok := provider.DurableCacheStats(); ok && st.Entries > 0 {
			fmt.Printf("warm start:         %d cached users recovered from %s (%d WAL records replayed, gen %d)\n",
				st.Entries, cache, st.Replayed, st.Gen)
		}
	}

	opts, err := options(alg)
	if err != nil {
		return err
	}
	opts = append(opts, rewire.WithFleet(fleetK), rewire.WithSeed(seed))
	session, err := rewire.NewSession(provider, opts...)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := session.Estimate(ctx, rewire.AvgDegree(), rewire.EstimateOptions{
		Samples:         samples,
		BurnIn:          true,
		GewekeThreshold: geweke,
	})
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Printf("NOTE: deadline %v expired; reporting the partial run\n", timeout)
	case errors.Is(err, rewire.ErrBudgetExhausted):
		fmt.Printf("NOTE: query budget %d exhausted; reporting the partial run\n", budget)
	default:
		return err
	}

	if g != nil {
		fmt.Printf("dataset:            %s (%d nodes, %d edges)\n", dataset, g.NumNodes(), g.NumEdges())
	} else {
		fmt.Printf("source:             %s (%d users)\n", dataset, provider.NumUsers())
	}
	fmt.Printf("sampler:            %s (seed %d, fleet %d)\n", alg, seed, fleetK)
	fmt.Printf("burn-in:            %d steps (converged: %v)\n", res.BurnInSteps, res.Converged)
	fmt.Printf("samples:            %d\n", res.Samples)
	fmt.Printf("estimated avg deg:  %.4f\n", res.Estimate)
	if g != nil {
		truth := g.AverageDegree()
		fmt.Printf("true avg degree:    %.4f\n", truth)
		fmt.Printf("relative error:     %.4f\n", rewire.RelativeError(res.Estimate, truth))
	}
	fmt.Printf("unique query cost:  %d\n", res.UniqueQueries)
	if limitFB && g != nil {
		// -source backends are not simulated: -facebook-limits is documented
		// as overridden, so don't print zeroed simulation telemetry for them.
		fmt.Printf("simulated time:     %s (%d rate-limit waits)\n",
			provider.SimulatedElapsed(), provider.RateLimitWaits())
	}
	return nil
}
