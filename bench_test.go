// One testing.B benchmark per paper table/figure (at reduced scale so the
// full suite stays minutes, not hours — the cmd/mto-bench binary runs the
// paper-scale versions), plus micro-benchmarks, design-choice ablations,
// and the fleet-scaling pair (see README.md).
package rewire_test

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"rewire"
	"rewire/internal/core"
	"rewire/internal/dataset"
	"rewire/internal/diag"
	"rewire/internal/exp"
	"rewire/internal/gen"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/spectral"
	"rewire/internal/walk"
)

// --- Paper artifacts -------------------------------------------------------

func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Table1(false, 40, 1)
		if len(res.Rows) != 3 {
			b.Fatal("table1 incomplete")
		}
	}
}

func BenchmarkRunningExampleBarbell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunningExample(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if res.PhiRM <= res.Phi0 {
			b.Fatal("no conductance gain")
		}
	}
}

func benchFig7(b *testing.B, name string) {
	ds := dataset.ByName(name, false)
	if ds == nil {
		b.Fatal("missing dataset")
	}
	cfg := exp.QuickFig7Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7(context.Background(), *ds, cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Epinions(b *testing.B)  { benchFig7(b, "Epinions") }
func BenchmarkFig7SlashdotA(b *testing.B) { benchFig7(b, "Slashdot A") }
func BenchmarkFig7SlashdotB(b *testing.B) { benchFig7(b, "Slashdot B") }

func BenchmarkFig8KLDivergence(b *testing.B) {
	ds := dataset.Small()[:1]
	cfg := exp.QuickFig8Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig8(context.Background(), ds, cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9GewekeSweep(b *testing.B) {
	ds := dataset.ByName("Slashdot B", false)
	cfg := exp.QuickFig9Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9(context.Background(), *ds, cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10LatentMixing(b *testing.B) {
	cfg := exp.QuickFig10Config()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig10(context.Background(), cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11GooglePlus(b *testing.B) {
	cfg := exp.QuickFig11Config()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11(context.Background(), false, cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem6Bound(b *testing.B) {
	cfg := exp.QuickTheorem6Config()
	for i := 0; i < b.N; i++ {
		res, err := exp.Theorem6(cfg, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.GainBound < 1.04 || res.GainBound > 1.06 {
			b.Fatalf("gain bound %v", res.GainBound)
		}
	}
}

// BenchmarkPaperEstimateOp is one op of the end-to-end paper-estimate
// workload: an MTO and an SRW session with the same fixed seed, each
// estimating the average degree of full Slashdot B under Geweke burn-in
// until a budget of Q=5000 unique queries runs out, on a fresh client over a
// zero-latency simulated provider. B/op is what the two sessions allocate
// for that seed; it varies between runs only where SpreadStarts misses its
// pooled buffer.
func BenchmarkPaperEstimateOp(b *testing.B) {
	ctx := context.Background()
	be, err := rewire.OpenBackend(ctx, "sim:preset?name=Slashdot%20B&full=true")
	if err != nil {
		b.Fatal(err)
	}
	const budget = 5000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alg := range []rewire.Algorithm{rewire.AlgMTO, rewire.AlgSRW} {
			prov := rewire.BackendSource(be)
			prov.SetBudget(budget)
			sess, err := rewire.NewSession(prov, rewire.WithAlgorithm(alg), rewire.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			_, err = sess.Estimate(ctx, rewire.AvgDegree(), rewire.EstimateOptions{
				Samples: math.MaxInt32, BurnIn: true, MaxBurnInSteps: budget / 2})
			if !errors.Is(err, rewire.ErrBudgetExhausted) || prov.UniqueQueries() != budget {
				b.Fatalf("%v: ended with %v after %d queries, want the budget of %d exhausted", alg, err, prov.UniqueQueries(), budget)
			}
		}
	}
}

// --- Ablations ---------------------------------------------------------------

// benchSamplerVariant measures unique-query cost per sample for one MTO
// configuration on the small Epinions stand-in.
func benchSamplerVariant(b *testing.B, opts ...rewire.Option) {
	g := dataset.Small()[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := rewire.NewSession(rewire.Simulate(g, rewire.Limits{}),
			append(opts, rewire.WithStarts(0), rewire.WithSeed(uint64(i+1)))...)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sess.Estimate(context.Background(), rewire.AvgDegree(), rewire.EstimateOptions{
			Samples: 2000, BurnIn: true, GewekeThreshold: 0.3, MaxBurnInSteps: 4000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.UniqueQueries), "queries/run")
	}
}

func BenchmarkAblationCriterionOriginal(b *testing.B) {
	benchSamplerVariant(b)
}

func BenchmarkAblationNoExtension(b *testing.B) {
	benchSamplerVariant(b, rewire.WithExtendedCriterion(false))
}

func BenchmarkAblationRemovalOnly(b *testing.B) {
	benchSamplerVariant(b, rewire.WithReplacement(false))
}

func BenchmarkAblationReplacementOnly(b *testing.B) {
	benchSamplerVariant(b, rewire.WithRemoval(false))
}

func BenchmarkAblationWeightExact(b *testing.B) {
	benchSamplerVariant(b, rewire.WithWeightMode(rewire.WeightExact))
}

func BenchmarkAblationWeightSampled(b *testing.B) {
	benchSamplerVariant(b, rewire.WithWeightMode(rewire.WeightSampled))
}

// --- Fleet scaling -----------------------------------------------------------

// benchFleetSamples draws a fixed sample budget with k shared-overlay MTO
// samplers over one shared caching client, either concurrently (walk.Fleet,
// k goroutines) or sequentially (the same members stepped round-robin on
// one goroutine).
// The service charges a real 200µs round-trip per unique query — the
// network cost a crawler actually pays — so comparing FleetConcurrentK16
// against FleetSequentialK16 measures the wall-clock win of overlapping
// in-flight queries (and, on multicore hardware, the sampling CPU too).
func benchFleetSamples(b *testing.B, k int, concurrent bool) {
	g := dataset.Small()[0].Graph
	const samples = 20000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := osn.NewService(g, nil, osn.Config{RealLatency: 200 * time.Microsecond})
		client := osn.NewClient(svc)
		r := rng.New(uint64(i + 1))
		starts := core.SpreadStarts(k, g.NumNodes(), r)
		f, _ := core.NewFleet(client, starts, core.DefaultConfig(), r)
		if concurrent {
			f.Samples(samples)
		} else {
			members := f.Members()
			for j := 0; j < samples; j++ {
				members[j%len(members)].Step()
			}
		}
		b.ReportMetric(float64(client.UniqueQueries()), "queries/run")
	}
}

func BenchmarkFleetConcurrentK1(b *testing.B)  { benchFleetSamples(b, 1, true) }
func BenchmarkFleetConcurrentK4(b *testing.B)  { benchFleetSamples(b, 4, true) }
func BenchmarkFleetConcurrentK16(b *testing.B) { benchFleetSamples(b, 16, true) }

func BenchmarkFleetSequentialK1(b *testing.B)  { benchFleetSamples(b, 1, false) }
func BenchmarkFleetSequentialK4(b *testing.B)  { benchFleetSamples(b, 4, false) }
func BenchmarkFleetSequentialK16(b *testing.B) { benchFleetSamples(b, 16, false) }

// BenchmarkStreamFleetK2 measures a racing fleet's hand-off: a 2-walker
// SRW fleet streaming through Session.Stream over a free in-memory graph, so
// the time is the walk step plus getting each sample to the consumer. One op
// is one sample: ns/op and allocs/op are per sample.
func BenchmarkStreamFleetK2(b *testing.B) {
	g, err := rewire.PresetGraph("Epinions", false)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithAlgorithm(rewire.AlgSRW),
		rewire.WithFleet(2), rewire.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for _, err := range sess.Stream(context.Background(), b.N) {
		if err != nil {
			b.Fatal(err)
		}
		n++
	}
	if n != b.N {
		b.Fatalf("streamed %d samples, want %d", n, b.N)
	}
}

// --- Batching dispatcher ------------------------------------------------------

// roundTripBackend charges one fixed delay per Fetch however many ids it
// carries: a provider whose cost is the round trip, not the id.
type roundTripBackend struct {
	inner rewire.Backend
	delay time.Duration
	calls atomic.Int64
}

func (r *roundTripBackend) Unwrap() rewire.Backend { return r.inner }

func (r *roundTripBackend) Fetch(ctx context.Context, ids []rewire.NodeID) ([][]rewire.NodeID, error) {
	r.calls.Add(1)
	t := time.NewTimer(r.delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return r.inner.Fetch(ctx, ids)
}

// BenchmarkBatchingFleetRounds crawls 512 samples per op with a 16-member
// partitioned SRW fleet through WithBatching{64, 2ms, 2} over a 1 ms
// round-trip backend, each op on a fresh cache. It reports round trips per
// op and how many of the dispatcher's holds waited out their timer per op:
// a hold ends at once when each member it was kept for comes back or
// retires, so expired holds are the rounds a straggler cost.
func BenchmarkBatchingFleetRounds(b *testing.B) {
	mem, err := rewire.OpenBackend(context.Background(), "mem:preset?name=Google+Plus&full=false")
	if err != nil {
		b.Fatal(err)
	}
	rt := &roundTripBackend{inner: mem, delay: time.Millisecond}
	stack := rewire.WithBatching(rt, rewire.BatchingOptions{MaxBatch: 64, MaxWait: 2 * time.Millisecond, MaxInflight: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := rewire.NewSession(rewire.BackendSource(stack), rewire.WithAlgorithm(rewire.AlgSRW),
			rewire.WithFleet(16), rewire.WithPartitionedBudget(true), rewire.WithSeed(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Samples(context.Background(), 512); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rt.calls.Load())/float64(b.N), "round-trips/op")
	b.ReportMetric(float64(rewire.BatchHoldsExpired(stack))/float64(b.N), "holds-expired/op")
}

// --- Prefetch pipeline -------------------------------------------------------

// benchFleetPrefetch draws a fixed partitioned sample budget with a k-member
// SRW fleet over one prefetching client, paying a real 200µs round-trip per
// service query. The budget is partitioned (not raced), so the trajectories
// — and with them the unique-query bill reported as queries/run — are
// byte-identical across strategies: compare BenchmarkFleetPrefetchOff
// against the strategy variants to read off the pure wall-clock win of
// speculation at equal query cost (≥2x for the pipelined strategies; see
// bench/baseline.json where CI gates exactly that).
func benchFleetPrefetch(b *testing.B, strategy string) {
	ds := dataset.Small()[0]
	cfg := exp.QuickPrefetchExpConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := exp.RunPrefetchFleet(ds, cfg, strategy, uint64(i+1))
		b.ReportMetric(float64(row.Unique), "queries/run")
	}
}

func BenchmarkFleetPrefetchOff(b *testing.B)      { benchFleetPrefetch(b, exp.PrefetchNone) }
func BenchmarkFleetPrefetchNextHop(b *testing.B)  { benchFleetPrefetch(b, exp.PrefetchNextHop) }
func BenchmarkFleetPrefetchFrontier(b *testing.B) { benchFleetPrefetch(b, exp.PrefetchFrontier) }

// benchMTOPrefetch is the single-walker MTO counterpart: pivot-candidate
// prefetch against the identical plain run.
func benchMTOPrefetch(b *testing.B, prefetch bool) {
	ds := dataset.Small()[0]
	cfg := exp.QuickPrefetchExpConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := exp.RunPrefetchMTO(ds, cfg, prefetch, uint64(i+1))
		b.ReportMetric(float64(row.Unique), "queries/run")
	}
}

func BenchmarkMTOPivotPrefetchOff(b *testing.B) { benchMTOPrefetch(b, false) }
func BenchmarkMTOPivotPrefetchOn(b *testing.B)  { benchMTOPrefetch(b, true) }

// --- Storage-engine contention ----------------------------------------------

// benchContention hammers one shared client with k zero-latency SRW walkers
// on k goroutines (partitioned step quotas, no fleet plumbing), isolating
// the storage engine's locking cost. shards=1 is the legacy single-RWMutex
// layout every store used before the sharded engine; shards=0 selects the
// sharded default. The gap between the two is a multicore effect — on one
// core they tie — which is why CI gates it through the conservative floor in
// bench/baseline.json rather than through these smoke benchmarks.
func benchContention(b *testing.B, k, shards int) {
	ds := dataset.Small()[0]
	cfg := exp.QuickContentionConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := exp.RunContention(ds, k, shards, cfg.Samples, uint64(i+1))
		b.ReportMetric(float64(row.Unique), "queries/run")
	}
}

func BenchmarkContentionLegacyK1(b *testing.B)   { benchContention(b, 1, 1) }
func BenchmarkContentionLegacyK4(b *testing.B)   { benchContention(b, 4, 1) }
func BenchmarkContentionLegacyK16(b *testing.B)  { benchContention(b, 16, 1) }
func BenchmarkContentionLegacyK64(b *testing.B)  { benchContention(b, 64, 1) }
func BenchmarkContentionShardedK1(b *testing.B)  { benchContention(b, 1, 0) }
func BenchmarkContentionShardedK4(b *testing.B)  { benchContention(b, 4, 0) }
func BenchmarkContentionShardedK16(b *testing.B) { benchContention(b, 16, 0) }
func BenchmarkContentionShardedK64(b *testing.B) { benchContention(b, 64, 0) }

// --- Micro-benchmarks of the hot paths --------------------------------------

func BenchmarkRemovalCriterion(b *testing.B) {
	g := dataset.Small()[0].Graph
	edges := g.Edges()
	b.ResetTimer()
	fired := 0
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if core.RemovableTheorem3(g.CountCommonNeighbors(e.U, e.V), g.Degree(e.U), g.Degree(e.V)) {
			fired++
		}
	}
	_ = fired
}

func BenchmarkMTOStep(b *testing.B) {
	g := dataset.Small()[0].Graph
	s := core.NewSampler(g, 0, core.DefaultConfig(), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkSRWStepViaClient(b *testing.B) {
	g := dataset.Small()[0].Graph
	svc := osn.NewService(g, nil, osn.Config{})
	client := osn.NewClient(svc)
	w := walk.NewSimple(client, 0, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}

func BenchmarkBuildOverlayEpinionsSmall(b *testing.B) {
	g := dataset.Small()[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildOverlay(g, core.BuildOptions{Removal: true, Replacement: true}, rng.New(uint64(i+1)))
	}
}

func BenchmarkSocialGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.Social(gen.SocialConfig{Nodes: 2659, TargetEdges: 10012}, rng.New(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactConductance22(b *testing.B) {
	g := gen.Barbell(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spectral.ExactConductance(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLambda2PowerIteration(b *testing.B) {
	g := dataset.Small()[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spectral.Lambda2(g, 500, 1e-8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGewekeObserve(b *testing.B) {
	m := diag.NewGeweke(0.1, 100)
	for i := 0; i < b.N; i++ {
		m.Observe(float64(i % 17))
		if i%1000 == 999 {
			m.Converged()
		}
	}
}
