// Prefetch: run the same SRW fleet twice against a simulated provider with
// a real 1ms round-trip per query — once cold, once with the asynchronous
// prefetch pipeline (hints for the top 8 cold frontier nodes feeding a
// depth-2 speculative worker pool with the default hint queue). The budget
// is partitioned, so both runs draw byte-identical trajectories and pay the
// byte-identical unique-query bill; the only thing
// speculation buys is wall-clock, because by the time the walk demands a
// node, its round-trip has usually already happened. The same contrast is
// then shown for an MTO session (pick and Theorem 4 pivot hints) —
// all of it on the public rewire SDK.
//
//	go run ./examples/prefetch
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rewire"
)

const (
	walkers = 4
	samples = 4000
	latency = time.Millisecond
)

func run(g *rewire.Graph, alg rewire.Algorithm, k, total int, prefetch bool) (time.Duration, *rewire.Provider) {
	osn := rewire.Simulate(g, rewire.Limits{RealLatency: latency})
	opts := []rewire.Option{
		rewire.WithAlgorithm(alg),
		rewire.WithFleet(k),
		rewire.WithSeed(7),
		rewire.WithPartitionedBudget(true),
	}
	if prefetch {
		opts = append(opts, rewire.WithPrefetch(rewire.PrefetchOptions{
			Strategy: rewire.PrefetchFrontier,
			Workers:  32,
			Depth:    2,
		}))
	}
	s, err := rewire.NewSession(osn, opts...)
	if err != nil {
		log.Fatal(err)
	}
	begin := time.Now()
	if _, err := s.Samples(context.Background(), total); err != nil {
		log.Fatal(err)
	}
	return time.Since(begin), osn
}

func main() {
	g, err := rewire.SocialGraph(2659, 10012, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges; provider round-trip %v\n\n", g.NumNodes(), g.NumEdges(), latency)

	// --- SRW fleet: cold vs frontier-prefetched ---------------------------
	coldWall, cold := run(g, rewire.AlgSRW, walkers, samples, false)
	fmt.Printf("SRW fleet (k=%d, %d samples, partitioned budget):\n", walkers, samples)
	fmt.Printf("  no prefetch     wall %-8v unique %-5d service round-trips %d\n",
		coldWall.Round(time.Millisecond), cold.UniqueQueries(), cold.TotalQueries())
	warmWall, warm := run(g, rewire.AlgSRW, walkers, samples, true)
	stats := warm.PrefetchStats()
	fmt.Printf("  frontier top-8  wall %-8v unique %-5d service round-trips %d\n",
		warmWall.Round(time.Millisecond), warm.UniqueQueries(), warm.TotalQueries())
	fmt.Printf("  speedup %.1fx at identical query bills (%d == %d); pool fetched %d, %d speculative responses never demanded\n\n",
		float64(coldWall)/float64(warmWall), cold.UniqueQueries(), warm.UniqueQueries(),
		stats.Fetched, stats.Unused)
	if cold.UniqueQueries() != warm.UniqueQueries() {
		log.Fatalf("prefetch changed the SRW query bill: %d vs %d", cold.UniqueQueries(), warm.UniqueQueries())
	}

	// --- MTO session: pick + pivot-candidate hints -------------------------
	mtoCold, mtoColdP := run(g, rewire.AlgMTO, 1, 1500, false)
	fmt.Printf("MTO session (1 walker, 1500 samples, Theorem 4 pivot hints):\n")
	fmt.Printf("  no prefetch     wall %-8v unique %d\n",
		mtoCold.Round(time.Millisecond), mtoColdP.UniqueQueries())
	mtoWarm, mtoWarmP := run(g, rewire.AlgMTO, 1, 1500, true)
	fmt.Printf("  pivot prefetch  wall %-8v unique %d\n",
		mtoWarm.Round(time.Millisecond), mtoWarmP.UniqueQueries())
	fmt.Printf("  speedup %.1fx — the picks and replacement targets coalesce onto in-flight speculation\n",
		float64(mtoCold)/float64(mtoWarm))
}
