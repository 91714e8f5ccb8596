// Google Plus crawl simulation: the paper's §V-B online experiment. A large
// synthetic social graph with per-user attributes sits behind a rate-limited
// API (Facebook-style 600 queries / 600 s); SRW and MTO estimate the average
// self-description length, and the report includes the simulated wall-clock
// a real crawler would have burned against the quota.
//
//	go run ./examples/gplus
package main

import (
	"context"
	"fmt"
	"log"

	"rewire/internal/core"
	"rewire/internal/diag"
	"rewire/internal/estimate"
	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/stats"
	"rewire/internal/walk"
)

func main() {
	ctx := context.Background()
	g := gen.GooglePlusLikeSmall(21)
	attrs := osn.SynthesizeAttributes(g, rng.New(22))
	truth := attrs.MeanDescLen()
	fmt.Printf("google-plus stand-in: %d users, %d connections\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("true average self-description length: %.2f chars\n\n", truth)

	for _, alg := range []string{"SRW", "MTO"} {
		svc := osn.NewService(g, attrs, osn.FacebookLimits())
		client := osn.NewClient(svc)
		r := rng.New(23)
		start := graph.NodeID(r.Intn(g.NumNodes()))
		var walker walk.Walker
		if alg == "SRW" {
			walker = walk.NewSimple(client, start, r)
		} else {
			walker = core.NewSampler(client, start, core.DefaultConfig(), r)
		}
		// The walk has already paid q(v) for every sampled v, so the
		// attributes come from the table the service serves.
		info := func(v graph.NodeID) (int, estimate.Attrs) {
			nbrs, err := client.NeighborsContext(ctx, v)
			if err != nil {
				log.Fatal(err)
			}
			return len(nbrs), attrs.Of(v)
		}
		res := estimate.RunSession([]walk.Walker{walker}, estimate.AvgDescLen(), info,
			client.UniqueQueries, estimate.SessionConfig{
				BurnIn:  diag.NewGeweke(diag.DefaultThreshold, 200),
				Samples: 3000,
			})
		fmt.Printf("%s:\n", alg)
		fmt.Printf("  estimate:        %.2f chars (rel err %.4f)\n",
			res.Estimate, stats.RelativeError(res.Estimate, truth))
		fmt.Printf("  unique queries:  %d (cache held %d users)\n", res.FinalCost, client.CacheSize())
		fmt.Printf("  burn-in:         %d steps (Geweke converged: %v)\n", res.BurnInSteps, res.BurnInConverged)
		fmt.Printf("  simulated time:  %s under the 600/600s quota (%d window waits)\n\n",
			svc.SimulatedElapsed().Round(1e9), svc.RateLimitWaits())
	}
}
