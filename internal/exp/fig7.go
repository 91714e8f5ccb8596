package exp

import (
	"context"
	"fmt"
	"io"
	"math"

	"rewire"
	"rewire/internal/dataset"
	"rewire/internal/diag"
	"rewire/internal/estimate"
	"rewire/internal/rng"
)

// Fig7Config controls the bias-vs-query-cost experiment (paper Fig 7: query
// cost needed to reach a given relative error when estimating the average
// degree, for SRW / MTO / MHRW / RJ).
type Fig7Config struct {
	// Runs is the number of independent walks averaged per point (paper: 20).
	Runs int
	// Samples drawn per run after burn-in.
	Samples int
	// ErrorGrid lists the relative-error thresholds (paper: 0.10–0.20 for
	// Slashdot, 0.10–0.30 for Epinions).
	ErrorGrid []float64
	// GewekeThreshold for the burn-in monitor (paper default 0.1).
	GewekeThreshold float64
	// MaxBurnIn caps burn-in steps per run.
	MaxBurnIn int
	// Algorithms to compare; defaults to the paper's four.
	Algorithms []rewire.Algorithm
}

// paperAlgorithms lists the Fig 7 competitors in the paper's order.
func paperAlgorithms() []rewire.Algorithm {
	return []rewire.Algorithm{rewire.AlgSRW, rewire.AlgMTO, rewire.AlgMHRW, rewire.AlgRJ}
}

// DefaultFig7Config mirrors the paper at full scale.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		Runs:            20,
		Samples:         4000,
		ErrorGrid:       []float64{0.20, 0.18, 0.16, 0.14, 0.12, 0.10},
		GewekeThreshold: diag.DefaultThreshold,
		MaxBurnIn:       30000,
		Algorithms:      paperAlgorithms(),
	}
}

// QuickFig7Config is a reduced-scale variant for tests and benches.
func QuickFig7Config() Fig7Config {
	return Fig7Config{
		Runs:            4,
		Samples:         1200,
		ErrorGrid:       []float64{0.20, 0.15, 0.10},
		GewekeThreshold: 0.3,
		MaxBurnIn:       4000,
		Algorithms:      paperAlgorithms(),
	}
}

// Fig7Series is one algorithm's cost-at-error curve.
type Fig7Series struct {
	Algorithm rewire.Algorithm
	// MeanCost[i] is the average query cost needed to settle below
	// ErrorGrid[i]; NaN when no run settled.
	MeanCost []float64
	// Settled[i] counts runs that settled below ErrorGrid[i].
	Settled []int
	// MeanFinalCost is the average total cost of a full run.
	MeanFinalCost float64
}

// Fig7Result is the full figure for one dataset.
type Fig7Result struct {
	Dataset   string
	Truth     float64
	ErrorGrid []float64
	Series    []Fig7Series
}

// Fig7 runs the experiment on one dataset: each run is one single-walker
// session over a fresh simulated provider, estimating the average degree,
// and its Result trajectory gives the cost at each error.
func Fig7(ctx context.Context, ds dataset.Dataset, cfg Fig7Config, seed uint64) (Fig7Result, error) {
	if len(cfg.Algorithms) == 0 {
		cfg.Algorithms = paperAlgorithms()
	}
	truth := estimate.GroundTruthDegree(ds.Graph)
	res := Fig7Result{Dataset: ds.Name, Truth: truth, ErrorGrid: cfg.ErrorGrid}
	master := rng.New(seed)
	opt := rewire.EstimateOptions{
		Samples:         cfg.Samples,
		BurnIn:          true,
		GewekeThreshold: cfg.GewekeThreshold,
		MaxBurnInSteps:  cfg.MaxBurnIn,
	}
	for _, alg := range cfg.Algorithms {
		trajectories := make([]estimate.Trajectory, 0, cfg.Runs)
		var costSum float64
		for run := 0; run < cfg.Runs; run++ {
			r, err := estimateOnce(ctx, rewire.Simulate(ds.Graph, rewire.Limits{}), rewire.AvgDegree(), opt,
				rewire.WithAlgorithm(alg), rewire.WithSeed(master.Uint64()))
			if err != nil {
				return res, fmt.Errorf("fig7 %v: %w", alg, err)
			}
			trajectories = append(trajectories, r.Trajectory)
			costSum += float64(r.UniqueQueries)
		}
		series := Fig7Series{Algorithm: alg, MeanFinalCost: costSum / float64(cfg.Runs)}
		for _, e := range cfg.ErrorGrid {
			mean, settled := estimate.MeanCostToReach(trajectories, truth, e)
			series.MeanCost = append(series.MeanCost, mean)
			series.Settled = append(series.Settled, settled)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// estimateOnce runs one Estimate on a fresh session over src.
func estimateOnce(ctx context.Context, src rewire.Source, agg rewire.Aggregate, opt rewire.EstimateOptions, opts ...rewire.Option) (rewire.Result, error) {
	sess, err := rewire.NewSession(src, opts...)
	if err != nil {
		return rewire.Result{}, err
	}
	return sess.Estimate(ctx, agg, opt)
}

// Render prints the cost-at-error matrix.
func (r Fig7Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 7 — %s: query cost to settle below relative error (truth avg degree %.3f)\n",
		r.Dataset, r.Truth)
	header := []string{"algorithm"}
	for _, e := range r.ErrorGrid {
		header = append(header, fmt.Sprintf("err<=%.2f", e))
	}
	header = append(header, "runs settled", "mean total cost")
	tab := &Table{Header: header}
	for _, s := range r.Series {
		row := []string{s.Algorithm.String()}
		minSettled := math.MaxInt
		for i := range r.ErrorGrid {
			if math.IsNaN(s.MeanCost[i]) {
				row = append(row, "-")
			} else {
				row = append(row, f1(s.MeanCost[i]))
			}
			if s.Settled[i] < minSettled {
				minSettled = s.Settled[i]
			}
		}
		row = append(row, itoa(int64(minSettled)), f1(s.MeanFinalCost))
		tab.AddRow(row...)
	}
	tab.Render(w)
}
