package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"rewire"
	"rewire/internal/dataset"
	"rewire/internal/diag"
	"rewire/internal/estimate"
	"rewire/internal/osn"
	"rewire/internal/rng"
)

// Fig11Config controls the Google Plus experiment (paper Fig 11): walks
// against a rate-limited live-style interface, (a) the estimated-average-
// degree trace vs query cost, and (b,c) the query cost to settle below a
// relative-error grid for average degree and average self-description
// length. The paper's two-step protocol is followed: each sampler first
// runs to Geweke convergence and its final estimate becomes the presumptive
// truth ("converged value"); error curves are then measured against it. Our
// synthetic stand-in also has exact ground truth, so both references are
// reported.
type Fig11Config struct {
	Runs            int
	Samples         int
	ErrorGrid       []float64
	GewekeThreshold float64
	MaxBurnIn       int
	// RateLimit applies the provider quota to the simulated interface.
	RateLimit rewire.Limits
}

// DefaultFig11Config mirrors the paper's setup with Facebook-style limits
// (Google's quota was "the most generous"; the limiter only affects
// simulated wall-clock, not unique-query counts).
func DefaultFig11Config() Fig11Config {
	return Fig11Config{
		Runs:            10,
		Samples:         4000,
		ErrorGrid:       []float64{0.50, 0.40, 0.30, 0.20, 0.15, 0.10},
		GewekeThreshold: diag.DefaultThreshold,
		MaxBurnIn:       30000,
		RateLimit:       rewire.FacebookLimits(),
	}
}

// QuickFig11Config is the reduced-scale variant.
func QuickFig11Config() Fig11Config {
	return Fig11Config{
		Runs:            3,
		Samples:         1200,
		ErrorGrid:       []float64{0.50, 0.30, 0.15},
		GewekeThreshold: 0.3,
		MaxBurnIn:       4000,
		RateLimit:       rewire.Limits{PerQueryLatency: 50 * time.Millisecond},
	}
}

// Fig11Series is one (algorithm, aggregate) error curve.
type Fig11Series struct {
	Algorithm      rewire.Algorithm
	Aggregate      string
	ConvergedValue float64 // the paper's presumptive ground truth
	ExactTruth     float64 // available because the dataset is synthetic
	MeanCost       []float64
	Settled        []int
}

// fig11Algorithms are the two chains Fig 11 compares.
var fig11Algorithms = []rewire.Algorithm{rewire.AlgSRW, rewire.AlgMTO}

// Fig11Result is the figure's data.
type Fig11Result struct {
	Nodes, Edges int
	ErrorGrid    []float64
	// Trace is Fig 11(a): (cost, estimated average degree) points for SRW
	// and MTO from one representative run each.
	Trace map[rewire.Algorithm][]rewire.TrajectoryPoint
	// Series covers Fig 11(b) (average degree) and (c) (self-description
	// length).
	Series []Fig11Series
	// SimulatedHours reports rate-limited wall-clock per algorithm (the
	// cost the paper's quota discussion is about).
	SimulatedHours map[rewire.Algorithm]float64
}

// Fig11 runs the Google Plus experiment at the requested scale.
func Fig11(ctx context.Context, full bool, cfg Fig11Config, seed uint64) (Fig11Result, error) {
	g := dataset.ByName("Google Plus", full).Graph
	master := rng.New(seed)
	attrs := osn.SynthesizeAttributes(g, master.Split())
	res := Fig11Result{
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
		ErrorGrid:      cfg.ErrorGrid,
		Trace:          map[rewire.Algorithm][]rewire.TrajectoryPoint{},
		SimulatedHours: map[rewire.Algorithm]float64{},
	}

	// The walk has already paid q(v) for every sampled v, so the
	// description length comes from the table the provider would serve.
	descLen := rewire.Aggregate{
		Name: "average self-description length",
		Value: func(v rewire.NodeID, _ int, _ rewire.Attrs) float64 {
			return float64(attrs.Of(v).DescLen)
		},
	}
	aggs := []rewire.Aggregate{rewire.AvgDegree(), descLen}
	exact := map[string]float64{
		aggs[0].Name: estimate.GroundTruthDegree(g),
		aggs[1].Name: attrs.MeanDescLen(),
	}
	opt := rewire.EstimateOptions{
		Samples:         cfg.Samples,
		BurnIn:          true,
		GewekeThreshold: cfg.GewekeThreshold,
		MaxBurnInSteps:  cfg.MaxBurnIn,
	}

	for _, alg := range fig11Algorithms {
		for _, agg := range aggs {
			trajectories := make([]estimate.Trajectory, 0, cfg.Runs)
			var convergedSum float64
			var simSeconds float64
			for run := 0; run < cfg.Runs; run++ {
				prov := rewire.Simulate(g, cfg.RateLimit)
				r, err := estimateOnce(ctx, prov, agg, opt, rewire.WithAlgorithm(alg), rewire.WithSeed(master.Uint64()))
				if err != nil {
					return res, fmt.Errorf("fig11 %v: %w", alg, err)
				}
				trajectories = append(trajectories, r.Trajectory)
				convergedSum += r.Estimate
				simSeconds += prov.SimulatedElapsed().Seconds()
				if run == 0 && agg.Name == aggs[0].Name {
					res.Trace[alg] = r.Trajectory
				}
			}
			converged := convergedSum / float64(cfg.Runs)
			series := Fig11Series{
				Algorithm:      alg,
				Aggregate:      agg.Name,
				ConvergedValue: converged,
				ExactTruth:     exact[agg.Name],
			}
			for _, e := range cfg.ErrorGrid {
				mean, settled := estimate.MeanCostToReach(trajectories, converged, e)
				series.MeanCost = append(series.MeanCost, mean)
				series.Settled = append(series.Settled, settled)
			}
			res.Series = append(res.Series, series)
			res.SimulatedHours[alg] += simSeconds / 3600 / float64(cfg.Runs)
		}
	}
	return res, nil
}

// Render prints the trace summary and error curves.
func (r Fig11Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 11 — Google Plus stand-in: %d nodes, %d edges\n\n", r.Nodes, r.Edges)
	fmt.Fprintln(w, "(a) estimated average degree vs query cost (first run per algorithm):")
	for _, alg := range fig11Algorithms {
		tr := r.Trace[alg]
		if len(tr) == 0 {
			continue
		}
		step := max(1, len(tr)/6)
		fmt.Fprintf(w, "  %-4s:", alg)
		for i := 0; i < len(tr); i += step {
			p := tr[i]
			fmt.Fprintf(w, "  (%d, %.2f)", p.Cost, p.Estimate)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\n(b,c) query cost to settle below relative error (vs converged value):")
	header := []string{"algorithm", "aggregate", "converged", "exact"}
	for _, e := range r.ErrorGrid {
		header = append(header, fmt.Sprintf("err<=%.2f", e))
	}
	tab := &Table{Header: header}
	for _, s := range r.Series {
		row := []string{s.Algorithm.String(), s.Aggregate, f2(s.ConvergedValue), f2(s.ExactTruth)}
		for i := range r.ErrorGrid {
			if math.IsNaN(s.MeanCost[i]) {
				row = append(row, "-")
			} else {
				row = append(row, f1(s.MeanCost[i]))
			}
		}
		tab.AddRow(row...)
	}
	tab.Render(w)
	fmt.Fprintln(w, "\nsimulated rate-limited hours per run (degree+desc sessions):")
	for _, alg := range fig11Algorithms {
		fmt.Fprintf(w, "  %-4s %.2f h\n", alg, r.SimulatedHours[alg])
	}
}
