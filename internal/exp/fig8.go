package exp

import (
	"fmt"
	"io"

	"rewire/internal/core"
	"rewire/internal/diag"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/stats"
	"rewire/internal/walk"
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
	Algorithm string
	KL        float64
	QueryCost int64
	BurnIn    int
}

// Fig8Result collects all cells.
type Fig8Result struct {
	Cells []Fig8Cell
}

// measureBias runs one sampler for cfg.Samples post-burn-in steps and
// measures the symmetric KL divergence between the empirical per-node
// sampling distribution and the sampler's ideal stationary distribution —
// degree-proportional for SRW, overlay-degree-proportional for MTO (each
// sampler is held to its own target, as in §V-A.3). Returns (KL, cost,
// burn-in steps).
func measureBias(ds Dataset, alg string, cfg Fig8Config, r *rng.Rand) (Fig8Cell, error) {
	svc := osn.NewService(ds.Graph, nil, osn.Config{})
	client := osn.NewClient(svc)
	start := graph.NodeID(r.Intn(ds.Graph.NumNodes()))
	walker, err := NewWalker(alg, client, client.NumUsers(), start, r)
	if err != nil {
		return Fig8Cell{}, err
	}
	// Burn-in on the degree trace.
	monitor := diag.NewGeweke(cfg.GewekeThreshold, 200)
	burn := 0
	for ; burn < cfg.MaxBurnIn; burn++ {
		v := walker.Step()
		monitor.Observe(float64(client.Degree(v)))
		if burn%25 == 24 && monitor.Converged() {
			break
		}
	}
	// Sampling phase: count visits.
	n := ds.Graph.NumNodes()
	hist := stats.NewCountHistogram(n)
	for i := 0; i < cfg.Samples; i++ {
		hist.Observe(int(walker.Step()))
	}
	cost := client.UniqueQueries() // capture before any measurement reads
	// Ideal stationary distribution: degree-proportional for the baselines,
	// overlay-degree-proportional for MTO — reconstructed from the local
	// graph plus the overlay's edge deltas so no extra queries are spent.
	ideal := make([]float64, n)
	for v := 0; v < n; v++ {
		ideal[v] = float64(ds.Graph.Degree(graph.NodeID(v)))
	}
	if s, ok := walker.(*core.Sampler); ok {
		for _, k := range s.Overlay().RemovedEdges() {
			u, v := k.Nodes()
			ideal[u]--
			ideal[v]--
		}
		for _, k := range s.Overlay().AddedEdges() {
			u, v := k.Nodes()
			ideal[u]++
			ideal[v]++
		}
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
		QueryCost: cost,
		BurnIn:    burn,
	}, nil
}

// Fig8 runs SRW vs MTO over the given datasets.
func Fig8(datasets []Dataset, cfg Fig8Config, seed uint64) (Fig8Result, error) {
	master := rng.New(seed)
	var res Fig8Result
	for _, ds := range datasets {
		for _, alg := range []string{AlgSRW, AlgMTO} {
			cell, err := measureBias(ds, alg, cfg, master.Split())
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
		tab.AddRow(c.Dataset, c.Algorithm, f4(c.KL), itoa(c.QueryCost), itoa(int64(c.BurnIn)))
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
func Fig9(ds Dataset, cfg Fig9Config, seed uint64) (Fig9Result, error) {
	master := rng.New(seed)
	res := Fig9Result{Dataset: ds.Name}
	for _, th := range cfg.Thresholds {
		f8 := Fig8Config{Samples: cfg.Samples, GewekeThreshold: th, MaxBurnIn: cfg.MaxBurnIn}
		srw, err := measureBias(ds, AlgSRW, f8, master.Split())
		if err != nil {
			return res, err
		}
		mto, err := measureBias(ds, AlgMTO, f8, master.Split())
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

var _ walk.Walker = (*core.Sampler)(nil)
