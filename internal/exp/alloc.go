package exp

import (
	"runtime"
	"slices"

	"rewire/internal/core"
	"rewire/internal/dataset"
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

// allocWindows is how many windows of allocMeasureRuns non-mutating MTO steps
// the gate measures; it keeps the best.
const allocWindows = 3

// SteadyStateAllocs measures AllocRow on ds at the given seed. The service
// is zero-latency: only the in-process hot path is exercised.
func SteadyStateAllocs(ds dataset.Dataset, seed uint64) AllocRow {
	srw, mto := steadyWalkers(ds, seed)
	return AllocRow{
		SRW: minAllocsPerOp(3, allocMeasureRuns, func() { srw.Step() }),
		MTO: slices.Min(samplerAllocWindows(mto, allocWindows, allocMeasureRuns)),
	}
}

// steadyWalkers returns an SRW and an MTO walker on ds, each over its own
// fully warm client and past steadyWarmups steps.
func steadyWalkers(ds dataset.Dataset, seed uint64) (*walk.Simple, *core.Sampler) {
	warmClient := func() *osn.Client {
		svc := osn.NewService(ds.Graph, nil, osn.Config{})
		client := osn.NewClient(svc)
		for v := 0; v < ds.Graph.NumNodes(); v++ {
			client.Neighbors(graph.NodeID(v))
		}
		return client
	}

	srw := walk.NewSimple(warmClient(), 0, rng.New(seed))
	mto := core.NewSampler(warmClient(), 0, core.DefaultConfig(), rng.New(seed+1))
	for i := 0; i < steadyWarmups; i++ {
		srw.Step()
		mto.Step()
	}
	return srw, mto
}

// samplerAllocWindows measures allocations per non-mutating Sampler step
// over n consecutive windows of runs counted steps each. A step that commits
// a removal or replacement is excluded (the overlay's list surgery allocates
// by design and happens a bounded number of times per graph); every other
// step must be free. Per-step ReadMemStats bracketing is slow — runs are
// small — but exact.
//
// MemStats counts every goroutine's mallocs, so a window opens only after
// quiesce, and the gate keeps the best window: a background goroutine's
// allocation taints one window, while the walk's own allocations — an
// arena slab refill included — are a property of the trajectory, which the
// race-free test pins by requiring every window to read 0.
func samplerAllocWindows(s *core.Sampler, n, runs int) []float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s.Step()
	out := make([]float64, n)
	var before, after runtime.MemStats
	for w := range out {
		quiesce()
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
		out[w] = float64(mallocs) / float64(counted)
	}
	return out
}

// quiesce collects garbage, then yields the (single) P a few times so the
// goroutines a GC cycle wakes — the unique package's map cleanup among them
// — run and allocate before a measured window opens rather than inside it.
func quiesce() {
	runtime.GC()
	for range 8 {
		runtime.Gosched()
	}
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
	quiesce()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
