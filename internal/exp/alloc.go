package exp

import (
	"runtime"

	"rewire/internal/core"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

// AllocRow reports heap allocations per steady-state walk step. "Steady
// state" means the client cache is fully warm (every node demanded once, so
// no step pays a fetch) and, for MTO, the step commits no rewiring — edge
// removals and replacements are amortized-finite (each edge removed at most
// once, each pivot used once) and legitimately allocate when they restructure
// the overlay's lists. In that regime the inner loop is the pure hot path —
// pick a cached neighbor list, draw from the RNG, apply the criteria, move —
// and the repo's performance contract is that it allocates nothing: an
// allocation per step is a GC-pressure regression that wall-clock benches on
// fast machines hide.
type AllocRow struct {
	// SRW is allocations per Simple.Step over a warm osn.Client.
	SRW float64
	// MTO is allocations per non-mutating core.Sampler.Step over a warm
	// osn.Client.
	MTO float64
}

// steadyWarmups is how many steps retire before measuring: enough for the
// MTO sampler to exhaust removals/replacements on the small datasets and for
// both walkers to stop touching cold cache entries.
const steadyWarmups = 20_000

// allocMeasureRuns is the sample size for the per-step allocation average.
const allocMeasureRuns = 2_000

// SteadyStateAllocs measures AllocRow on ds at the given seed. The service
// is zero-latency: only the in-process hot path is exercised.
func SteadyStateAllocs(ds Dataset, seed uint64) AllocRow {
	var row AllocRow

	warmClient := func() *osn.Client {
		svc := osn.NewService(ds.Graph, nil, osn.Config{})
		client := osn.NewClient(svc)
		for v := 0; v < ds.Graph.NumNodes(); v++ {
			client.Neighbors(graph.NodeID(v))
		}
		return client
	}

	srw := walk.NewSimple(warmClient(), 0, rng.New(seed))
	for i := 0; i < steadyWarmups; i++ {
		srw.Step()
	}
	row.SRW = minAllocsPerOp(3, allocMeasureRuns, func() { srw.Step() })

	mto := core.NewSampler(warmClient(), 0, core.DefaultConfig(), rng.New(seed+1))
	for i := 0; i < steadyWarmups; i++ {
		mto.Step()
	}
	row.MTO = samplerSteadyAllocs(mto, allocMeasureRuns)
	return row
}

// samplerSteadyAllocs measures allocations per non-mutating Sampler step: a
// step that commits a removal or replacement is excluded (the overlay's list
// surgery allocates by design and happens a bounded number of times per
// graph), every other step must be free. Per-step ReadMemStats bracketing is
// slow — runs are small — but exact.
func samplerSteadyAllocs(s *core.Sampler, runs int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s.Step()
	runtime.GC()
	var before, after runtime.MemStats
	var mallocs uint64
	counted := 0
	for guard := 0; counted < runs && guard < 100*runs; guard++ {
		st := s.Stats()
		runtime.ReadMemStats(&before)
		s.Step()
		runtime.ReadMemStats(&after)
		now := s.Stats()
		if now.Removals != st.Removals || now.Replacements != st.Replacements {
			continue // rewiring committed: list surgery is allowed to allocate
		}
		mallocs += after.Mallocs - before.Mallocs
		counted++
	}
	return float64(mallocs) / float64(counted)
}

// minAllocsPerOp takes the best of n allocsPerOp attempts — the bestOf
// de-noising idiom. A walk that genuinely allocates per step shows it in
// every attempt; a stray straggler (a concurrent GC cycle's bookkeeping)
// only taints some.
func minAllocsPerOp(n, runs int, f func()) float64 {
	best := allocsPerOp(runs, f)
	for i := 1; i < n && best > 0; i++ {
		if a := allocsPerOp(runs, f); a < best {
			best = a
		}
	}
	return best
}

// allocsPerOp mirrors testing.AllocsPerRun (which the bench suite cannot
// import outside a test binary): pin to one proc, warm once, then average
// mallocs over runs calls of f.
func allocsPerOp(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
