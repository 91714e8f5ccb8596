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

	"rewire"
	"rewire/internal/gen"
	"rewire/internal/osn"
	"rewire/internal/rng"
)

func main() {
	ctx := context.Background()
	g := gen.GooglePlusLikeSmall(21)
	attrs := osn.SynthesizeAttributes(g, rng.New(22))
	truth := attrs.MeanDescLen()
	fmt.Printf("google-plus stand-in: %d users, %d connections\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("true average self-description length: %.2f chars\n\n", truth)

	// The walk has already paid q(v) for every sampled v, so the aggregate
	// reads v's description length from the table the provider serves.
	descLen := rewire.Aggregate{
		Name: "average self-description length",
		Value: func(v rewire.NodeID, _ int, _ rewire.Attrs) float64 {
			return float64(attrs.Of(v).DescLen)
		},
	}
	for _, alg := range []rewire.Algorithm{rewire.AlgSRW, rewire.AlgMTO} {
		prov := rewire.Simulate(g, rewire.FacebookLimits())
		sess, err := rewire.NewSession(prov, rewire.WithAlgorithm(alg), rewire.WithSeed(23))
		if err != nil {
			log.Fatal(err)
		}
		res, err := sess.Estimate(ctx, descLen, rewire.EstimateOptions{Samples: 3000, BurnIn: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v:\n", alg)
		fmt.Printf("  estimate:        %.2f chars (rel err %.4f)\n",
			res.Estimate, rewire.RelativeError(res.Estimate, truth))
		fmt.Printf("  unique queries:  %d (cache held %d users)\n", res.UniqueQueries, prov.CacheSize())
		fmt.Printf("  burn-in:         %d steps (Geweke converged: %v)\n", res.BurnInSteps, res.Converged)
		fmt.Printf("  simulated time:  %s under the 600/600s quota (%d window waits)\n\n",
			prov.SimulatedElapsed().Round(1e9), prov.RateLimitWaits())
	}
}
