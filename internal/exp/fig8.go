package exp

import (
	"context"
	"fmt"
	"io"

	"rewire"
	"rewire/internal/dataset"
	"rewire/internal/rng"
	"rewire/internal/stats"
)

// Fig8Config controls the long-run bias measurement (paper Fig 8: query
// cost and symmetric KL divergence of SRW vs MTO over the three local
// datasets, 20,000 samples each, Geweke threshold 0.1).
type Fig8Config struct {
	// Samples per sampler after burn-in (paper: 20000).
	Samples int
	// GewekeThreshold for burn-in (paper: 0.1; swept by Fig 9).
	GewekeThreshold float64
	// MaxBurnIn caps burn-in steps.
	MaxBurnIn int
}

// DefaultFig8Config mirrors the paper.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{Samples: 20000, GewekeThreshold: 0.1, MaxBurnIn: 50000}
}

// QuickFig8Config is the reduced-scale variant.
func QuickFig8Config() Fig8Config {
	return Fig8Config{Samples: 5000, GewekeThreshold: 0.3, MaxBurnIn: 5000}
}

// Fig8Cell is one (dataset, algorithm) measurement.
type Fig8Cell struct {
	Dataset   string
	Algorithm rewire.Algorithm
	KL        float64
	QueryCost int64
	BurnIn    int
}

// Fig8Result collects all cells.
type Fig8Result struct {
	Cells []Fig8Cell
}

// measureBias runs one session for cfg.Samples post-burn-in samples over a
// simulated provider and measures the symmetric KL divergence between the
// empirical per-node sampling distribution and the chain's ideal stationary
// distribution — degree-proportional for SRW, proportional to the degree in
// the rewired topology the walk reached for MTO (each sampler is held to its
// own target, as in §V-A.3).
func measureBias(ctx context.Context, ds dataset.Dataset, alg rewire.Algorithm, cfg Fig8Config, seed uint64) (Fig8Cell, error) {
	sess, err := rewire.NewSession(rewire.Simulate(ds.Graph, rewire.Limits{}),
		rewire.WithAlgorithm(alg), rewire.WithSeed(seed))
	if err != nil {
		return Fig8Cell{}, err
	}
	n := ds.Graph.NumNodes()
	hist := stats.NewCountHistogram(n)
	// Estimate calls Value once per post-burn-in sample: count the visits.
	visits := rewire.AvgDegree()
	visits.Value = func(v rewire.NodeID, deg int, _ rewire.Attrs) float64 {
		hist.Observe(int(v))
		return float64(deg)
	}
	r, err := sess.Estimate(ctx, visits, rewire.EstimateOptions{
		Samples:         cfg.Samples,
		BurnIn:          true,
		GewekeThreshold: cfg.GewekeThreshold,
		MaxBurnInSteps:  cfg.MaxBurnIn,
	})
	if err != nil {
		return Fig8Cell{}, fmt.Errorf("fig8 %s %v: %w", ds.Name, alg, err)
	}
	target := ds.Graph
	if alg == rewire.AlgMTO {
		// This crawls every node; the cell's cost was read before it.
		if target, err = sess.MaterializeOverlay(); err != nil {
			return Fig8Cell{}, err
		}
	}
	ideal := make([]float64, n)
	for v := range ideal {
		ideal[v] = float64(target.Degree(rewire.NodeID(v)))
	}
	// Finite samples cannot hit every node; smooth with mass 1/(10·samples).
	eps := 1.0 / (10 * float64(cfg.Samples))
	kl, err := stats.SymmetricKL(ideal, hist.Distribution(), eps)
	if err != nil {
		return Fig8Cell{}, err
	}
	return Fig8Cell{
		Dataset:   ds.Name,
		Algorithm: alg,
		KL:        kl,
		QueryCost: r.UniqueQueries,
		BurnIn:    r.BurnInSteps,
	}, nil
}

// Fig8 runs SRW vs MTO over the given datasets.
func Fig8(ctx context.Context, datasets []dataset.Dataset, cfg Fig8Config, seed uint64) (Fig8Result, error) {
	master := rng.New(seed)
	var res Fig8Result
	for _, ds := range datasets {
		for _, alg := range []rewire.Algorithm{rewire.AlgSRW, rewire.AlgMTO} {
			cell, err := measureBias(ctx, ds, alg, cfg, master.Uint64())
			if err != nil {
				return res, err
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Render prints the KL/cost comparison.
func (r Fig8Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 8 — symmetric KL divergence and unique-query cost, SRW vs MTO")
	tab := &Table{Header: []string{"dataset", "algorithm", "KL divergence", "query cost", "burn-in steps"}}
	for _, c := range r.Cells {
		tab.AddRow(c.Dataset, c.Algorithm.String(), f4(c.KL), itoa(c.QueryCost), itoa(int64(c.BurnIn)))
	}
	tab.Render(w)
}

// Fig9Config controls the Geweke-threshold sweep on Slashdot B (paper
// Fig 9: thresholds 0.1–0.8, reporting KL divergence and query cost for SRW
// and MTO).
type Fig9Config struct {
	Thresholds []float64
	Samples    int
	MaxBurnIn  int
}

// DefaultFig9Config mirrors the paper.
func DefaultFig9Config() Fig9Config {
	return Fig9Config{
		Thresholds: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
		Samples:    20000,
		MaxBurnIn:  50000,
	}
}

// QuickFig9Config is the reduced-scale variant.
func QuickFig9Config() Fig9Config {
	return Fig9Config{Thresholds: []float64{0.2, 0.5, 0.8}, Samples: 4000, MaxBurnIn: 4000}
}

// Fig9Row is one threshold's measurements for both samplers.
type Fig9Row struct {
	Threshold float64
	KLSRW     float64
	KLMTO     float64
	CostSRW   int64
	CostMTO   int64
}

// Fig9Result is the sweep.
type Fig9Result struct {
	Dataset string
	Rows    []Fig9Row
}

// Fig9 sweeps the Geweke threshold on one dataset (the paper uses
// Slashdot B).
func Fig9(ctx context.Context, ds dataset.Dataset, cfg Fig9Config, seed uint64) (Fig9Result, error) {
	master := rng.New(seed)
	res := Fig9Result{Dataset: ds.Name}
	for _, th := range cfg.Thresholds {
		f8 := Fig8Config{Samples: cfg.Samples, GewekeThreshold: th, MaxBurnIn: cfg.MaxBurnIn}
		srw, err := measureBias(ctx, ds, rewire.AlgSRW, f8, master.Uint64())
		if err != nil {
			return res, err
		}
		mto, err := measureBias(ctx, ds, rewire.AlgMTO, f8, master.Uint64())
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Fig9Row{
			Threshold: th,
			KLSRW:     srw.KL, KLMTO: mto.KL,
			CostSRW: srw.QueryCost, CostMTO: mto.QueryCost,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r Fig9Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 9 — Geweke threshold sweep on %s\n", r.Dataset)
	tab := &Table{Header: []string{"threshold", "KL SRW", "KL MTO", "cost SRW", "cost MTO"}}
	for _, row := range r.Rows {
		tab.AddRow(f2(row.Threshold), f4(row.KLSRW), f4(row.KLMTO),
			itoa(row.CostSRW), itoa(row.CostMTO))
	}
	tab.Render(w)
}
