package store

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

func TestDefaultShardsAdaptive(t *testing.T) {
	n := DefaultShards()
	if n < MinDefaultShards || n > MaxDefaultShards {
		t.Fatalf("DefaultShards() = %d outside [%d, %d]", n, MinDefaultShards, MaxDefaultShards)
	}
	if n&(n-1) != 0 {
		t.Fatalf("DefaultShards() = %d not a power of two", n)
	}
	procs := runtime.GOMAXPROCS(0)
	if want := ceilPow2(4 * procs); n != want && want >= MinDefaultShards && want <= MaxDefaultShards {
		t.Fatalf("DefaultShards() = %d, want %d for GOMAXPROCS=%d", n, want, procs)
	}
}

func TestArenaCarving(t *testing.T) {
	a := NewArena[int32](8)
	x := a.Alloc(3)
	y := a.Alloc(3)
	if len(x) != 0 || cap(x) != 3 || len(y) != 0 || cap(y) != 3 {
		t.Fatalf("carves have wrong shape: len/cap %d/%d, %d/%d", len(x), cap(x), len(y), cap(y))
	}
	x = append(x, 1, 2, 3)
	y = append(y, 4, 5, 6)
	if x[0] != 1 || y[0] != 4 {
		t.Fatal("carves overlap")
	}
	// Appending past a carve's capacity must reallocate, not bleed into the
	// neighboring carve.
	x = append(x, 99)
	if y[0] != 4 {
		t.Fatal("append past capacity corrupted the next carve")
	}
	// Oversized requests get dedicated allocations.
	big := a.Alloc(100)
	if cap(big) != 100 {
		t.Fatalf("oversized carve cap = %d", cap(big))
	}
	if a.Alloc(0) != nil {
		t.Fatal("Alloc(0) should be nil")
	}
}

func TestArenaConcurrent(t *testing.T) {
	a := NewArena[int32](1024)
	var wg sync.WaitGroup
	out := make([][]int32, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := a.Alloc(5)
				for j := 0; j < 5; j++ {
					s = append(s, int32(g))
				}
				out[g] = s
			}
		}(g)
	}
	wg.Wait()
	for g, s := range out {
		for _, v := range s {
			if v != int32(g) {
				t.Fatalf("goroutine %d's carve contains %d — carves overlapped", g, v)
			}
		}
	}
}

func TestCeilPow2ClampsInsteadOfOverflowing(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1},
		{3, 4},
		{1 << 20, 1 << 20},
		{1<<20 + 1, 1 << 21},
		{math.MaxInt, math.MaxInt/2 + 1},
		{math.MaxInt/2 + 2, math.MaxInt/2 + 1},
	} {
		if got := ceilPow2(tc.n); got != tc.want {
			t.Errorf("ceilPow2(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
