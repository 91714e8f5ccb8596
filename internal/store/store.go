// Package store is the storage engine shared by the client cache
// (internal/osn) and the rewiring overlay (internal/core). It exists because
// every layer of walk bookkeeping used to be a single-RWMutex Go map:
// correct, but a serialization point that a k=16 walker fleet plus a
// prefetch worker pool all funnel through. "Walk, Not Wait" (Nazi et al.)
// and "Leveraging History for Faster Sampling" (Zhou et al.) both observe
// that at scale the sampling frontier is client-side state management, not
// the walk itself — so the state gets its own engine:
//
//   - Table is a lock-free radix table over int32 ids: the osn client keeps
//     one entry per user in it, and the overlay one materialized neighbor
//     list per node, so a cache hit in either is a single atomic load.
//   - Stripes is the per-id lock set that goes with a Table: the osn client
//     runs its per-user singleflight and billing transitions under the id's
//     stripe.
//   - Arena is a slab allocator for the short int32 neighbor lists the
//     overlay materializes by the tens of thousands, for their slice
//     headers, and for the osn client's cache entries: one slab allocation
//     amortizes hundreds of allocations, and dropped values release their
//     slab to the GC once the last value carved from it dies.
//
// Stripe counts are powers of two so the stripe index is a mask, not a
// modulo, and keys are mixed through a 64-bit finalizer first — dense
// NodeIDs would otherwise stripe consecutive nodes into consecutive stripes
// and turn a BFS-ish access pattern into a single-stripe hotspot.
package store

import (
	"math"
	"runtime"
)

// Default stripe-count clamp: MinDefaultShards keeps even a single-core box
// reasonably collision-free (walkers + prefetch workers), MaxDefaultShards
// caps the footprint on very wide machines — beyond a few hundred stripes
// the birthday bound stops improving anything measurable.
const (
	MinDefaultShards = 8
	MaxDefaultShards = 256
)

// DefaultShards returns the stripe count used when a caller passes n <= 0:
// the next power of two >= 4x GOMAXPROCS, clamped to [MinDefaultShards,
// MaxDefaultShards]. 4x over-provisioning keeps the expected collision count
// of a fully loaded fleet (one walker per P plus prefetch workers) near the
// birthday bound's comfortable regime, and sizing from GOMAXPROCS instead of
// a fixed 64 means a 2-core CI runner stops paying for stripes it cannot
// contend on while a 64-core box stops funneling 64 walkers through 64
// stripes at ~1 expected collision each. Striping is invisible to results —
// trajectories and query bills at a fixed seed are identical at any stripe
// count — so the adaptive default is purely a contention decision.
func DefaultShards() int {
	n := ceilPow2(4 * runtime.GOMAXPROCS(0))
	if n < MinDefaultShards {
		return MinDefaultShards
	}
	if n > MaxDefaultShards {
		return MaxDefaultShards
	}
	return n
}

// mix is the splitmix64 finalizer: a full-avalanche 64-bit mixer, so dense
// sequential keys spread uniformly over stripes.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ceilPow2 rounds n up to the next power of two (n <= 0 => DefaultShards()),
// clamped to the largest power of two an int holds.
func ceilPow2(n int) int {
	if n <= 0 {
		return DefaultShards()
	}
	p := 1
	for p < n && p <= math.MaxInt/2 {
		p <<= 1
	}
	return p
}
