package exp

import (
	"context"
	"fmt"
	"io"

	"rewire"
	"rewire/internal/gen"
	"rewire/internal/latent"
	"rewire/internal/rng"
	"rewire/internal/spectral"
)

// Fig10Config controls the latent-space mixing-time experiment (paper
// Fig 10: theoretical mixing time of the original graph, the Theorem 6
// bound, and the walk-built overlays MTO_Both / MTO_RM / MTO_RP, as the
// number of nodes grows).
type Fig10Config struct {
	// Sizes lists the node counts (paper: 50–100 in the plot, nodes
	// distributed on [0,4]×[0,5] with r = 0.7).
	Sizes []int
	// Trials averaged per size.
	Trials int
	// CoverageSteps caps the walk-to-coverage phase per trial.
	CoverageSteps int
}

// DefaultFig10Config mirrors the paper.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		Sizes:         []int{50, 55, 60, 65, 70, 75},
		Trials:        20,
		CoverageSteps: 200000,
	}
}

// QuickFig10Config is the reduced-scale variant.
func QuickFig10Config() Fig10Config {
	return Fig10Config{Sizes: []int{50, 60}, Trials: 3, CoverageSteps: 50000}
}

// Fig10Row aggregates one size's mixing times (averaged over trials, on the
// giant component of each sampled latent graph).
type Fig10Row struct {
	Nodes          int // requested size
	GiantNodes     float64
	Original       float64
	TheoryBound    float64
	MTOBoth        float64
	MTORemoveOnly  float64
	MTOReplaceOnly float64
}

// Fig10Result is the figure's data.
type Fig10Result struct {
	GainBound float64 // Theorem 6 conductance-gain bound (≈1.052)
	Rows      []Fig10Row
}

// Fig10 runs the experiment. For every size and trial it samples a paper-
// configured latent graph, takes the giant component, computes SLEM mixing
// times for the original graph and for overlays extracted by running the
// three MTO variants to full node coverage (the paper's §V-A.3 procedure),
// plus the Theorem 6 theoretical series: the original mixing time shrunk by
// the conductance-gain bound squared (mixing time scales as 1/Φ², eq. 6).
func Fig10(ctx context.Context, cfg Fig10Config, seed uint64) (Fig10Result, error) {
	master := rng.New(seed)
	gain := latent.PaperGainBound()
	res := Fig10Result{GainBound: gain}
	for _, n := range cfg.Sizes {
		row := Fig10Row{Nodes: n}
		valid := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			r := master.Split()
			g0, _, err := gen.LatentSpace(gen.PaperLatentConfig(n), r)
			if err != nil {
				return res, err
			}
			g, _ := g0.LargestComponent()
			if g.NumNodes() < 4 || g.NumEdges() < 4 {
				continue // degenerate draw; sparse small graphs happen
			}
			orig, err := spectral.GraphMixingTime(g)
			if err != nil || orig == 0 {
				continue
			}
			mixOf := func(opts ...rewire.Option) (float64, error) {
				ov, err := coverageOverlay(ctx, g, cfg.CoverageSteps, append(opts, rewire.WithSeed(r.Uint64()))...)
				if err != nil {
					return 0, err
				}
				return spectral.GraphMixingTime(ov)
			}
			both, err := mixOf()
			if err != nil {
				continue
			}
			rm, err := mixOf(rewire.WithReplacement(false))
			if err != nil {
				continue
			}
			rp, err := mixOf(rewire.WithRemoval(false))
			if err != nil {
				continue
			}
			row.GiantNodes += float64(g.NumNodes())
			row.Original += orig
			row.TheoryBound += orig / (gain * gain)
			row.MTOBoth += both
			row.MTORemoveOnly += rm
			row.MTOReplaceOnly += rp
			valid++
		}
		if valid == 0 {
			continue
		}
		f := float64(valid)
		row.GiantNodes /= f
		row.Original /= f
		row.TheoryBound /= f
		row.MTOBoth /= f
		row.MTORemoveOnly /= f
		row.MTOReplaceOnly /= f
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// coverageOverlay walks an MTO session over g until it has visited every
// node or taken maxSteps steps, and returns the rewired topology it built.
func coverageOverlay(ctx context.Context, g *rewire.Graph, maxSteps int, opts ...rewire.Option) (*rewire.Graph, error) {
	sess, err := rewire.NewSession(rewire.GraphSource(g), append(opts, rewire.WithAlgorithm(rewire.AlgMTO))...)
	if err != nil {
		return nil, err
	}
	seen := make([]bool, g.NumNodes())
	seen[sess.Positions()[0]] = true
	visited := 1
	for v := range sess.Nodes(ctx, maxSteps) {
		if !seen[v] {
			seen[v] = true
			if visited++; visited == len(seen) {
				break
			}
		}
	}
	if err := sess.Err(); err != nil {
		return nil, err
	}
	return sess.MaterializeOverlay()
}

// Render prints the five series.
func (r Fig10Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 10 — latent-space theoretical mixing time (Theorem 6 gain bound %.4f)\n", r.GainBound)
	tab := &Table{Header: []string{
		"nodes", "giant", "original", "theory bound", "MTO_Both", "MTO_RM", "MTO_RP",
	}}
	for _, row := range r.Rows {
		tab.AddRow(itoa(int64(row.Nodes)), f1(row.GiantNodes), f2(row.Original),
			f2(row.TheoryBound), f2(row.MTOBoth), f2(row.MTORemoveOnly), f2(row.MTOReplaceOnly))
	}
	tab.Render(w)
}
