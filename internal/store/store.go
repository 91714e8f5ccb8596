// Package store is the sharded, memory-compact storage engine shared by the
// client cache (internal/osn), the rewiring overlay (internal/core), and the
// public SDK's session plumbing. It exists because every layer of walk
// bookkeeping used to be a single-RWMutex Go map: correct, but a serialization
// point that a k=16 walker fleet plus a prefetch worker pool all funnel
// through. "Walk, Not Wait" (Nazi et al.) and "Leveraging History for Faster
// Sampling" (Zhou et al.) both observe that at scale the sampling frontier is
// client-side state management, not the walk itself — so the state gets its
// own engine:
//
//   - Map is a power-of-two-sharded hash map with one RWMutex per shard.
//     Operations on keys that hash to different shards never contend, and a
//     writer stalls only 1/shards of the traffic. The rewiring overlay keeps
//     its edge sets and list cache in Maps.
//   - Table is a lock-free radix table over int32 ids, and Stripes the
//     per-id lock set that goes with it: the osn client keeps one entry per
//     user in a Table, so a cache hit is a single atomic load, and runs its
//     per-user singleflight and billing transitions under the id's stripe.
//   - Arena is a slab allocator for the short int32 neighbor lists the
//     overlay materializes by the tens of thousands, and for the osn
//     client's cache entries: one slab allocation amortizes hundreds of
//     allocations, and dropped lists release their slab to the GC once the
//     last list carved from it dies.
//
// Shard counts are powers of two so the shard index is a mask, not a modulo,
// and keys are mixed through a 64-bit finalizer first — dense NodeIDs would
// otherwise stripe consecutive nodes into consecutive shards and turn a
// BFS-ish access pattern into a single-shard hotspot.
package store

import (
	"math"
	"runtime"
	"sync"
)

// Default shard-count clamp: MinDefaultShards keeps even a single-core box
// reasonably collision-free (walkers + prefetch workers), MaxDefaultShards
// caps the per-map footprint on very wide machines — beyond a few hundred
// shards the birthday bound stops improving anything measurable.
const (
	MinDefaultShards = 8
	MaxDefaultShards = 256
)

// DefaultShards returns the shard count used when a caller passes n <= 0:
// the next power of two >= 4x GOMAXPROCS, clamped to [MinDefaultShards,
// MaxDefaultShards]. 4x over-provisioning keeps the expected collision count
// of a fully loaded fleet (one walker per P plus prefetch workers) near the
// birthday bound's comfortable regime, and sizing from GOMAXPROCS instead of
// a fixed 64 means a 2-core CI runner stops paying for shards it cannot
// contend on while a 64-core box stops funneling 64 walkers through 64
// shards at ~1 expected collision each. Sharding is invisible to results —
// trajectories and query bills at a fixed seed are identical at any shard
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

// Key is the set of integer key types the engine shards over: node IDs
// (int32) and packed edge keys (uint64).
type Key interface {
	~int32 | ~uint32 | ~int64 | ~uint64
}

// mix is the splitmix64 finalizer: a full-avalanche 64-bit mixer, so dense
// sequential keys spread uniformly over shards.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shard pads each lock+map pair to its own cache line so reader-side lock
// traffic on one shard does not false-share with its neighbors.
type shard[K Key, V any] struct {
	mu sync.RWMutex
	m  map[K]V
	_  [64 - 24 - 8]byte
}

// Map is a sharded hash map safe for concurrent use. The zero value is not
// usable; construct with NewMap.
type Map[K Key, V any] struct {
	shards []shard[K, V]
	mask   uint64
}

// NewMap returns a map with the given shard count rounded up to a power of
// two (n <= 0 selects the adaptive DefaultShards(); n == 1 is a valid
// single-lock map, the pre-sharding behavior the contention benchmarks
// compare against).
func NewMap[K Key, V any](n int) *Map[K, V] {
	n = ceilPow2(n)
	m := &Map[K, V]{shards: make([]shard[K, V], n), mask: uint64(n - 1)}
	for i := range m.shards {
		m.shards[i].m = make(map[K]V)
	}
	return m
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

// Shards returns the shard count (always a power of two).
func (m *Map[K, V]) Shards() int { return len(m.shards) }

func (m *Map[K, V]) shardOf(k K) *shard[K, V] {
	return &m.shards[mix(uint64(k))&m.mask]
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	s := m.shardOf(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

// Put stores v under k.
func (m *Map[K, V]) Put(k K, v V) {
	s := m.shardOf(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// Delete removes k.
func (m *Map[K, V]) Delete(k K) {
	s := m.shardOf(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// Contains reports whether k is present.
func (m *Map[K, V]) Contains(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// Len returns the total entry count. Shards are read-locked one at a time, so
// with concurrent writers the result is a consistent-per-shard snapshot, not
// a global one — the same guarantee len(map) under a shared RWMutex gave
// callers that raced it.
func (m *Map[K, V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls f for every entry until f returns false. Iteration order is
// unspecified (as with Go maps). Each shard is read-locked while its entries
// are visited; f must not call back into the same Map with a write operation
// on a key that could hash to the shard being visited — collect first,
// mutate after.
func (m *Map[K, V]) Range(f func(K, V) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !f(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

// Keys returns all keys (order unspecified).
func (m *Map[K, V]) Keys() []K {
	out := make([]K, 0, m.Len())
	m.Range(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
