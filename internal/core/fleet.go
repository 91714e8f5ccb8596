package core

import (
	"slices"
	"sync"

	"rewire/internal/graph"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

// NewFleet builds one MTO sampler per start, all sharing a single overlay
// over src, and wraps them in a walk.Fleet: k goroutines, one rewired
// topology, one query budget. src must be safe for concurrent use
// (osn.Client and *graph.Graph both are). Each member gets its own RNG
// stream split from r, so runs are reproducible up to goroutine
// interleaving. The shared overlay is returned for post-run inspection
// (Materialize, RemovedCount, ...).
func NewFleet(src walk.Source, starts []graph.NodeID, cfg Config, r *rng.Rand) (*walk.Fleet, *Overlay) {
	ov := NewOverlay(src)
	members := make([]walk.Walker, len(starts))
	for i, s := range starts {
		members[i] = NewSamplerOn(ov, s, cfg, r.Split())
	}
	return walk.NewFleet(members...), ov
}

// SpreadStarts picks k distinct start nodes spread uniformly over an n-node
// ID space (distinct as long as k <= n), the recommended fleet seeding: the
// whole point of many walks is to begin in many places. The starts are
// exactly r.Perm(n)[:k], and r is left in the state r.Perm(n) leaves it in,
// but no |V|-sized buffer is allocated per call: the shuffle runs over a
// pooled one.
func SpreadStarts(k, n int, r *rng.Rand) []graph.NodeID {
	if k > n {
		k = n
	}
	buf, _ := permPool.Get().(*[]graph.NodeID)
	if buf == nil {
		buf = new([]graph.NodeID)
	}
	perm := slices.Grow((*buf)[:0], n)[:n]
	for i := range perm {
		perm[i] = graph.NodeID(i)
	}
	// r.Perm's Fisher–Yates: the same Intn(i+1) draws, in the same order.
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	starts := make([]graph.NodeID, k)
	copy(starts, perm)
	*buf = perm
	permPool.Put(buf)
	return starts
}

// permPool recycles SpreadStarts' shuffle buffers, so starting a session
// costs no garbage proportional to the graph.
var permPool sync.Pool
