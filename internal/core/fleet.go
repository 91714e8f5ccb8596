package core

import (
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
// whole point of many walks is to begin in many places.
func SpreadStarts(k, n int, r *rng.Rand) []graph.NodeID {
	if k > n {
		k = n
	}
	perm := r.Perm(n)
	starts := make([]graph.NodeID, k)
	for i := range starts {
		starts[i] = graph.NodeID(perm[i])
	}
	return starts
}
