package exp

import (
	"fmt"
	"io"
	"math"
	"time"

	"rewire/internal/diag"
	"rewire/internal/estimate"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/walk"
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
	TracePoints     int
	// RateLimit applies the provider quota to the simulated interface.
	RateLimit osn.Config
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
		TracePoints:     60,
		RateLimit:       osn.FacebookLimits(),
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
		TracePoints:     30,
		RateLimit:       osn.Config{PerQueryLatency: 50 * time.Millisecond},
	}
}

// Fig11Series is one (algorithm, aggregate) error curve.
type Fig11Series struct {
	Algorithm      string
	Aggregate      string
	ConvergedValue float64 // the paper's presumptive ground truth
	ExactTruth     float64 // available because the dataset is synthetic
	MeanCost       []float64
	Settled        []int
}

// Fig11Result is the figure's data.
type Fig11Result struct {
	Nodes, Edges int
	ErrorGrid    []float64
	// Trace is Fig 11(a): (cost, estimated average degree) points for SRW
	// and MTO from one representative run each.
	Trace map[string]*estimate.Trajectory
	// Series covers Fig 11(b) (average degree) and (c) (self-description
	// length).
	Series []Fig11Series
	// SimulatedHours reports rate-limited wall-clock per algorithm (the
	// cost the paper's quota discussion is about).
	SimulatedHours map[string]float64
}

// Fig11 runs the Google Plus experiment at the requested scale.
func Fig11(full bool, cfg Fig11Config, seed uint64) (Fig11Result, error) {
	g := DatasetByName("Google Plus", full).Graph
	master := rng.New(seed)
	attrs := osn.SynthesizeAttributes(g, master.Split())
	res := Fig11Result{
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
		ErrorGrid:      cfg.ErrorGrid,
		Trace:          map[string]*estimate.Trajectory{},
		SimulatedHours: map[string]float64{},
	}

	aggs := []estimate.Aggregate{estimate.AvgDegree(), estimate.AvgDescLen()}
	exact := map[string]float64{
		aggs[0].Name: estimate.GroundTruthDegree(g),
		aggs[1].Name: attrs.MeanDescLen(),
	}

	for _, alg := range []string{AlgSRW, AlgMTO} {
		for _, agg := range aggs {
			trajectories := make([]*estimate.Trajectory, 0, cfg.Runs)
			var convergedSum float64
			var simSeconds float64
			for run := 0; run < cfg.Runs; run++ {
				r := master.Split()
				svc := osn.NewService(g, attrs, cfg.RateLimit)
				client := osn.NewClient(svc)
				start := graph.NodeID(r.Intn(g.NumNodes()))
				walker, err := NewWalker(alg, client, client.NumUsers(), start, r)
				if err != nil {
					return res, err
				}
				// The walk has already paid q(v) for every sampled v, so the
				// attributes come from the table the service serves.
				info := func(v graph.NodeID) (int, estimate.Attrs) {
					return client.Degree(v), attrs.Of(v)
				}
				sr := estimate.RunSession([]walk.Walker{walker}, agg, info, client.UniqueQueries,
					estimate.SessionConfig{
						BurnIn:         diag.NewGeweke(cfg.GewekeThreshold, 200),
						MaxBurnInSteps: cfg.MaxBurnIn,
						Samples:        cfg.Samples,
						RecordEvery:    maxInt(1, cfg.Samples/cfg.TracePoints),
					})
				trajectories = append(trajectories, sr.Trajectory)
				convergedSum += sr.Estimate
				simSeconds += svc.SimulatedElapsed().Seconds()
				if run == 0 && agg.Name == aggs[0].Name {
					res.Trace[alg] = sr.Trajectory
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Render prints the trace summary and error curves.
func (r Fig11Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 11 — Google Plus stand-in: %d nodes, %d edges\n\n", r.Nodes, r.Edges)
	fmt.Fprintln(w, "(a) estimated average degree vs query cost (first run per algorithm):")
	for _, alg := range []string{AlgSRW, AlgMTO} {
		tr := r.Trace[alg]
		if tr == nil || len(tr.Points) == 0 {
			continue
		}
		step := maxInt(1, len(tr.Points)/6)
		fmt.Fprintf(w, "  %-4s:", alg)
		for i := 0; i < len(tr.Points); i += step {
			p := tr.Points[i]
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
		row := []string{s.Algorithm, s.Aggregate, f2(s.ConvergedValue), f2(s.ExactTruth)}
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
	for alg, h := range r.SimulatedHours {
		fmt.Fprintf(w, "  %-4s %.2f h\n", alg, h)
	}
}
