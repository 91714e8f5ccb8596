package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	neturl "net/url"
	"strings"
	"sync/atomic"
	"time"

	"rewire"
)

// paperEstimate is the paper's accuracy-per-query experiment (Fig 7): each
// op runs one MTO and one SRW single-walker session with the same seed and
// the same unique-query budget Q, each estimating the average degree with
// Geweke burn-in until the budget is exhausted. The simulated provider has
// no latency, so all time goes to the walk, the rewiring criteria and cache
// hits; batching, the wire, durability and serving sit idle.
type paperEstimate struct {
	cfg    config
	tr     *tracer
	preset string
	full   bool
	budget int64
	runs   int // checked set: the first runs ops

	g       *rewire.Graph
	stack   rewire.Backend
	queries atomic.Int64
}

func newPaperEstimate(cfg config, tr *tracer) *paperEstimate {
	w := &paperEstimate{cfg: cfg, tr: tr, preset: "Slashdot B", full: true, budget: 5000, runs: 64}
	if cfg.tiny {
		w.full, w.budget, w.runs = false, 2000, 3
	}
	return w
}

func (w *paperEstimate) sizes() map[string]any {
	return map[string]any{"graph": w.preset, "full": w.full, "budget_q": w.budget, "checked_pairs_r": w.runs}
}

func (w *paperEstimate) setup(ctx context.Context) error {
	url := fmt.Sprintf("sim:preset?name=%s&full=%t", neturl.QueryEscape(w.preset), w.full)
	be, err := rewire.OpenBackend(ctx, url)
	if err != nil {
		return err
	}
	if w.g, err = rewire.PresetGraph(w.preset, w.full); err != nil {
		return err
	}
	w.stack = demandTap(wireTap(be, w.tr), w.tr)
	return nil
}

func (w *paperEstimate) reset(context.Context) error { return nil }

func (w *paperEstimate) clients() int         { return 1 }
func (w *paperEstimate) checked() int         { return w.runs }
func (w *paperEstimate) graph() *rewire.Graph { return w.g }
func (w *paperEstimate) close() error         { return nil }

func (w *paperEstimate) counts() counts { return stackCounts(w.stack, w.queries.Load()) }

func (w *paperEstimate) op(ctx context.Context, p *pass, i int) (opResult, error) {
	var res opResult
	seed := opSeed(w.cfg.seed, i)
	for _, alg := range []rewire.Algorithm{rewire.AlgMTO, rewire.AlgSRW} {
		t0 := time.Now()
		r, removed, added, err := w.estimate(ctx, alg, seed)
		if err != nil {
			return res, fmt.Errorf("%v: %w", alg, err)
		}
		steps := r.BurnInSteps + r.Samples
		res.samples += steps
		if alg == rewire.AlgSRW {
			res.srwSteps += steps
			res.srwTime += time.Since(t0)
		}
		res.estimates = append(res.estimates, r.Estimate)
		res.exact = append(res.exact, uint64(steps), uint64(r.UniqueQueries), math.Float64bits(r.Estimate),
			uint64(removed), uint64(added))
		if i < w.runs {
			tag := "_" + strings.ToLower(alg.String())
			p.add("estimate.relerr"+tag, relErr(r.Estimate, avgDegree(w.g)))
			p.add("estimate.burnin_steps"+tag, float64(r.BurnInSteps))
			if r.Converged {
				p.add("estimate.converged_frac"+tag, 1)
			}
			p.add("core.rewired_removed", float64(removed))
			p.add("core.rewired_added", float64(added))
		}
	}
	return res, nil
}

// estimate runs one budgeted session and checks the paper's protocol held:
// the run stopped on the budget, exactly at it, with a finite estimate.
func (w *paperEstimate) estimate(ctx context.Context, alg rewire.Algorithm, seed uint64) (rewire.Result, int, int, error) {
	prov := rewire.BackendSource(w.stack)
	prov.SetBudget(w.budget)
	sess, err := rewire.NewSession(prov, rewire.WithAlgorithm(alg), rewire.WithSeed(seed))
	if err != nil {
		return rewire.Result{}, 0, 0, err
	}
	// Burn-in may spend at most half the budget (every step costs at most one
	// query), so every run reaches its sampling phase.
	r, err := sess.Estimate(ctx, stepAggregate(ctx, w.tr), rewire.EstimateOptions{
		Samples: math.MaxInt32, BurnIn: true, MaxBurnInSteps: int(w.budget / 2)})
	w.queries.Add(prov.UniqueQueries())
	switch {
	case !errors.Is(err, rewire.ErrBudgetExhausted):
		return r, 0, 0, fmt.Errorf("run ended with %v, want the budget exhausted", err)
	case prov.UniqueQueries() != w.budget || r.UniqueQueries != w.budget:
		return r, 0, 0, fmt.Errorf("run billed %d unique queries, want exactly %d", prov.UniqueQueries(), w.budget)
	case math.IsNaN(r.Estimate) || math.IsInf(r.Estimate, 0) || r.Samples == 0:
		return r, 0, 0, fmt.Errorf("estimate %v from %d samples is not finite", r.Estimate, r.Samples)
	}
	removed, added := sess.Rewired()
	return r, removed, added, nil
}

// stepAggregate is the average-degree aggregate, instrumented: Estimate
// calls Value once per post-burn-in step, so while tracing each call closes
// a session.step span that opened at the previous one.
func stepAggregate(ctx context.Context, tr *tracer) rewire.Aggregate {
	agg := rewire.AvgDegree()
	if !tr.enabled() {
		return agg
	}
	value, parent := agg.Value, spanFrom(ctx)
	last := int64(-1)
	agg.Value = func(v rewire.NodeID, deg int, a rewire.Attrs) float64 {
		now := tr.now()
		if last >= 0 {
			tr.add(span{name: "session.step", parent: parent, start: last, end: now, key1: "node", val1: int64(v)})
		}
		last = now
		return value(v, deg, a)
	}
	return agg
}

func (w *paperEstimate) verify(context.Context, *pass) error { return nil }

func (w *paperEstimate) layers(p *pass, m map[string]float64) {
	runs := float64(w.runs)
	for _, name := range []string{"estimate.relerr_mto", "estimate.relerr_srw", "estimate.burnin_steps_mto",
		"estimate.burnin_steps_srw", "estimate.converged_frac_mto", "estimate.converged_frac_srw",
		"core.rewired_removed", "core.rewired_added"} {
		m[name] = p.get(name) / runs
	}
}
