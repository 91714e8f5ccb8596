package store

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

func TestMapBasics(t *testing.T) {
	m := NewMap[int32, string](8)
	if m.Shards() != 8 {
		t.Fatalf("shards = %d, want 8", m.Shards())
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("empty map reported a hit")
	}
	m.Put(1, "a")
	m.Put(2, "b")
	m.Put(1, "c") // overwrite
	if v, ok := m.Get(1); !ok || v != "c" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	m.Delete(1)
	if m.Contains(1) {
		t.Fatal("deleted key still present")
	}
	if m.Len() != 1 {
		t.Fatalf("Len after delete = %d, want 1", m.Len())
	}
}

func TestMapShardRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{-1, DefaultShards()}, {0, DefaultShards()}, {1, 1}, {2, 2}, {3, 4},
		{5, 8}, {64, 64}, {65, 128},
	}
	for _, c := range cases {
		if got := NewMap[uint64, int](c.in).Shards(); got != c.want {
			t.Errorf("NewMap(%d).Shards() = %d, want %d", c.in, got, c.want)
		}
	}
}

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

func TestMapRangeAndKeys(t *testing.T) {
	m := NewMap[uint64, int](4)
	want := map[uint64]int{}
	for i := uint64(0); i < 100; i++ {
		m.Put(i, int(i)*3)
		want[i] = int(i) * 3
	}
	got := map[uint64]int{}
	m.Range(func(k uint64, v int) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range saw %d=%d, want %d", k, got[k], v)
		}
	}
	if len(m.Keys()) != 100 {
		t.Fatalf("Keys len = %d", len(m.Keys()))
	}
	// Early stop.
	n := 0
	m.Range(func(uint64, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range with false continued: %d visits", n)
	}
}

func TestMapConcurrentMixed(t *testing.T) {
	m := NewMap[int32, int64](0) // default shards
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := int32((g*7 + i) % 257)
				switch i % 4 {
				case 0:
					m.Put(k, int64(i))
				case 1:
					m.Get(k)
				case 2:
					m.Contains(k)
				case 3:
					if i%16 == 3 {
						m.Delete(k)
					} else {
						m.Len()
					}
				}
			}
		}(g)
	}
	wg.Wait()
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
