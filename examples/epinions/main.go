// Epinions aggregate estimation: the paper's §V-B local-dataset workload.
// A directed trust graph is converted to its reciprocal undirected form
// (§V-A.2), served behind the restrictive per-user query interface, and all
// four samplers estimate the average degree under a fixed query budget.
//
//	go run ./examples/epinions
package main

import (
	"context"
	"fmt"
	"log"

	"rewire"
	"rewire/internal/gen"
	"rewire/internal/rng"
)

func main() {
	ctx := context.Background()
	// Build the trust network the way the paper prepares Epinions: start
	// from the directed graph, keep only reciprocal edges.
	mutual := gen.EpinionsLikeSmall(11)
	directed := gen.DirectedTrust(mutual, mutual.NumEdges()/2, rng.New(12))
	g := directed.Reciprocal()
	fmt.Printf("directed trust graph: %d arcs; reciprocal: %d nodes, %d edges\n",
		directed.NumArcs(), g.NumNodes(), g.NumEdges())

	truth := g.AverageDegree()
	fmt.Printf("ground-truth average degree: %.4f\n\n", truth)
	fmt.Printf("%-7s %12s %10s %10s %9s\n", "sampler", "estimate", "rel err", "queries", "burn-in")

	for _, alg := range []rewire.Algorithm{rewire.AlgSRW, rewire.AlgMTO, rewire.AlgMHRW, rewire.AlgRJ} {
		sess, err := rewire.NewSession(rewire.Simulate(g, rewire.Limits{}),
			rewire.WithAlgorithm(alg), rewire.WithSeed(99))
		if err != nil {
			log.Fatal(err)
		}
		res, err := sess.Estimate(ctx, rewire.AvgDegree(), rewire.EstimateOptions{Samples: 3000, BurnIn: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s %12.4f %10.4f %10d %9d\n",
			alg, res.Estimate, rewire.RelativeError(res.Estimate, truth),
			res.UniqueQueries, res.BurnInSteps)
	}
}
