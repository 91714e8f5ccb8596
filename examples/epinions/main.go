// Epinions aggregate estimation: the paper's §V-B local-dataset workload.
// A directed trust graph is converted to its reciprocal undirected form
// (§V-A.2), served behind the restrictive per-user query interface, and all
// four samplers estimate the average degree under a fixed query budget.
//
//	go run ./examples/epinions
package main

import (
	"fmt"
	"log"

	"rewire/internal/diag"
	"rewire/internal/estimate"
	"rewire/internal/exp"
	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/stats"
	"rewire/internal/walk"
)

func main() {
	// Build the trust network the way the paper prepares Epinions: start
	// from the directed graph, keep only reciprocal edges.
	mutual := gen.EpinionsLikeSmall(11)
	directed := gen.DirectedTrust(mutual, mutual.NumEdges()/2, rng.New(12))
	g := directed.Reciprocal()
	fmt.Printf("directed trust graph: %d arcs; reciprocal: %d nodes, %d edges\n",
		directed.NumArcs(), g.NumNodes(), g.NumEdges())

	truth := estimate.GroundTruthDegree(g)
	fmt.Printf("ground-truth average degree: %.4f\n\n", truth)
	fmt.Printf("%-7s %12s %10s %10s %9s\n", "sampler", "estimate", "rel err", "queries", "burn-in")

	for _, alg := range exp.PaperAlgorithms() {
		svc := osn.NewService(g, nil, osn.Config{})
		client := osn.NewClient(svc)
		r := rng.New(99)
		start := graph.NodeID(r.Intn(g.NumNodes()))
		walker, err := exp.NewWalker(alg, client, client.NumUsers(), start, r)
		if err != nil {
			log.Fatal(err)
		}
		info := func(v graph.NodeID) (int, estimate.Attrs) {
			return client.Degree(v), estimate.Attrs{}
		}
		res := estimate.RunSession([]walk.Walker{walker}, estimate.AvgDegree(), info,
			client.UniqueQueries, estimate.SessionConfig{
				BurnIn:  diag.NewGeweke(diag.DefaultThreshold, 200),
				Samples: 3000,
			})
		fmt.Printf("%-7s %12.4f %10.4f %10d %9d\n",
			alg, res.Estimate, stats.RelativeError(res.Estimate, truth),
			res.FinalCost, res.BurnInSteps)
	}
}
