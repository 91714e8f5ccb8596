package store

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// tableIDs straddle every page boundary the geometry has, plus the ids a
// provider could hand over by mistake or malice.
var tableIDs = []int32{
	-1, 0, 1, 1023, 1024, 1025, 1<<22 - 1, 1 << 22, 1 << 29,
	math.MaxInt32, math.MinInt32, math.MinInt32 + 1,
}

func TestTableBoundaries(t *testing.T) {
	var tab Table[int32]
	for _, id := range tableIDs {
		if got := tab.Load(id); got != nil {
			t.Fatalf("empty table: Load(%d) = %d", id, *got)
		}
		tab.Delete(id) // on a missing page: a no-op
	}
	for _, id := range tableIDs {
		v := id
		tab.Store(id, &v)
	}
	for _, id := range tableIDs {
		if got := tab.Load(id); got == nil || *got != id {
			t.Fatalf("Load(%d) = %v, want its own value", id, got)
		}
	}
	// Neighbors across a leaf boundary are distinct slots.
	if got := tab.Load(1022); got != nil {
		t.Fatalf("Load(1022) = %d, never stored", *got)
	}
	if got := tab.Load(2048); got != nil {
		t.Fatalf("Load(2048) = %d, never stored", *got)
	}
	tab.Delete(1023)
	if tab.Load(1023) != nil || tab.Load(1024) == nil {
		t.Fatal("Delete(1023) must clear exactly its own slot")
	}
}

// TestTableHostileIDMemory bounds what one id can cost: at most one interior
// page and one leaf page (64 KiB), and nothing for a second id on the same
// leaf.
func TestTableHostileIDMemory(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	v := int32(7)
	for _, id := range tableIDs {
		tab := new(Table[int32])
		var before, mid, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tab.Store(id, &v)
		runtime.ReadMemStats(&mid)
		tab.Store(id^1, &v)
		runtime.ReadMemStats(&after)
		if got := mid.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("Store(%d) on an empty table allocated %d B, want at most 64 KiB", id, got)
		}
		if got := after.TotalAlloc - mid.TotalAlloc; got != 0 {
			t.Errorf("Store(%d) on a present leaf allocated %d B, want 0", id^1, got)
		}
		runtime.KeepAlive(tab)
	}
}

// TestTableConcurrent races Store, Load and Delete, including first-use page
// installs: every goroutine starts on the same empty pages, so a lost
// compare-and-swap that kept its own page would lose stores.
func TestTableConcurrent(t *testing.T) {
	var tab Table[int32]
	const workers, span = 8, 3000 // span crosses two leaf boundaries
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			for i := int32(0); i < span; i++ {
				id := i*workers + w - span // negative and positive ids
				v := id
				tab.Store(id, &v)
				if got := tab.Load(id); got == nil || *got != id {
					t.Errorf("own store of %d not visible: %v", id, got)
					return
				}
				other := id - 1 // another worker's id: absent or its own value
				if got := tab.Load(other); got != nil && *got != other {
					t.Errorf("Load(%d) = %d", other, *got)
					return
				}
				if i%3 == 0 {
					tab.Delete(id)
				}
			}
		}(int32(w))
	}
	wg.Wait()
	for w := range int32(workers) {
		for i := int32(0); i < span; i++ {
			id := i*workers + w - span
			got := tab.Load(id)
			if deleted := i%3 == 0; deleted != (got == nil) || (got != nil && *got != id) {
				t.Fatalf("after the race: Load(%d) = %v (deleted: %v)", id, got, deleted)
			}
		}
	}
}

func TestStripes(t *testing.T) {
	s := NewStripes(5)
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8 (rounded up)", s.Len())
	}
	if s.Of(-1) != s.Of(-1) || NewStripes(1).Len() != 1 {
		t.Fatal("stripe choice must be a function of the key")
	}
	if NewStripes(0).Len() != DefaultShards() {
		t.Fatal("n <= 0 must select DefaultShards")
	}
	// Dense ids spread over every stripe.
	seen := map[any]bool{}
	for id := range int32(64) {
		seen[s.Of(id)] = true
	}
	if len(seen) != s.Len() {
		t.Fatalf("64 dense ids used %d of %d stripes", len(seen), s.Len())
	}
}
