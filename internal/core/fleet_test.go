package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"rewire/internal/graph"
	"rewire/internal/rng"
)

// TestSpreadStartsMatchesPerm pins SpreadStarts to r.Perm(n)[:k]: the same
// starts, and the generator left in the same state, because every walker is
// split from that state and every pinned transcript depends on it.
func TestSpreadStartsMatchesPerm(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 17, 1000, 70999} {
		for _, k := range []int{1, 4, 16, n, n + 1} {
			for _, seed := range []uint64{1, 2, 20130408} {
				got, ref := rng.New(seed), rng.New(seed)
				starts := SpreadStarts(k, n, got)
				perm := ref.Perm(n)
				want := make([]graph.NodeID, min(k, n))
				for i := range want {
					want[i] = graph.NodeID(perm[i])
				}
				if !slices.Equal(starts, want) {
					t.Fatalf("n=%d k=%d seed=%d: starts %v, want %v", n, k, seed, starts, want)
				}
				if got.State() != ref.State() {
					t.Fatalf("n=%d k=%d seed=%d: generator state differs from r.Perm's", n, k, seed)
				}
			}
		}
	}
}

// TestSpreadStartsConcurrent: eight callers racing for the four shared
// shuffle buffers (a caller that finds all in use shuffles one of its own)
// still get exactly r.Perm's starts and generator state.
func TestSpreadStartsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				n, seed := 1000+g*97+i, uint64(g*100+i)
				got, ref := rng.New(seed), rng.New(seed)
				starts := SpreadStarts(4, n, got)
				perm := ref.Perm(n)
				for j, s := range starts {
					if int(s) != perm[j] {
						t.Errorf("n=%d seed=%d: start %d is %d, want %d", n, seed, j, s, perm[j])
						return
					}
				}
				if got.State() != ref.State() {
					t.Errorf("n=%d seed=%d: generator state differs from r.Perm's", n, seed)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSpreadStartsAllocation bounds a warm call's garbage far below a
// |V|-sized permutation (about 570 KB as r.Perm's []int at this size).
func TestSpreadStartsAllocation(t *testing.T) {
	const n, calls = 70999, 20
	r := rng.New(1)
	SpreadStarts(4, n, r) // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		SpreadStarts(4, n, r)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 4<<10 {
		t.Fatalf("SpreadStarts(4, %d) allocated %d B per warm call, want < 4 KiB", n, per)
	}
}
