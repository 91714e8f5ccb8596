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
// but no |V|-sized buffer is allocated per call: the shuffle runs over one of
// a few shared buffers, and only a call that finds them all in use by
// concurrent ones allocates its own.
func SpreadStarts(k, n int, r *rng.Rand) []graph.NodeID {
	if k > n {
		k = n
	}
	var perm []graph.NodeID
	for i := range permBufs {
		if b := &permBufs[i]; b.TryLock() {
			defer b.Unlock()
			b.buf = slices.Grow(b.buf[:0], n)
			perm = b.buf[:n]
			break
		}
	}
	if perm == nil {
		perm = make([]graph.NodeID, n)
	}
	for i := range perm {
		perm[i] = graph.NodeID(i)
	}
	rng.ShuffleInt32s(r, perm) // r.Perm's draws, in the same order
	starts := make([]graph.NodeID, k)
	copy(starts, perm)
	return starts
}

// permBufs are SpreadStarts' shared shuffle buffers, each taken with TryLock
// so a caller never waits for one. Unlike a sync.Pool's per-P slots, which a
// goroutine on another P cannot reach and the GC clears, they stay warm for
// every caller in the process. Four cover the sessions a serving daemon
// starts at once; each holds the largest ID space it has shuffled.
var permBufs [4]struct {
	sync.Mutex
	buf []graph.NodeID
}
