package rewire

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rewire/internal/osn"
)

// countBackend answers every fetch with a fixed number of lists, whatever
// the number of ids asked for.
type countBackend struct{ lists int }

func (b countBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	return make([][]NodeID, b.lists), ctx.Err()
}

// TestBackendListCountChecked pins the client's one list-count check: a
// third-party backend that answers a 1-id fetch with 0 or 2 lists fails the
// query, and neither the demand path nor the prefetch pool caches or bills
// anything for it.
func TestBackendListCountChecked(t *testing.T) {
	for _, lists := range []int{0, 2} {
		t.Run(fmt.Sprintf("%d lists", lists), func(t *testing.T) {
			p := BackendSource(countBackend{lists: lists})
			if nbrs, err := p.NeighborsContext(context.Background(), 3); err == nil {
				t.Fatalf("NeighborsContext accepted %d lists for 1 id: %v", lists, nbrs)
			}
			if size, unique := p.CacheSize(), p.UniqueQueries(); size != 0 || unique != 0 {
				t.Fatalf("after a rejected fetch: CacheSize %d, UniqueQueries %d, want 0 and 0", size, unique)
			}

			p.client.StartPrefetch(osn.PrefetchConfig{Workers: 1})
			if p.client.Prefetch(4) != 1 {
				t.Fatal("prefetch hint not accepted")
			}
			deadline := time.Now().Add(5 * time.Second)
			for p.PrefetchStats().Skipped+p.PrefetchStats().Fetched == 0 {
				if time.Now().After(deadline) {
					t.Fatal("prefetch pool never ran the hint")
				}
				time.Sleep(time.Millisecond)
			}
			p.client.StopPrefetch()
			if st := p.PrefetchStats(); st.Fetched != 0 {
				t.Fatalf("prefetch pool counted a rejected fetch: %+v", st)
			}
			if p.client.Known(4) || p.CacheSize() != 0 || p.PrefetchStats().Unused != 0 {
				t.Fatalf("rejected prefetch left a cache entry: CacheSize %d, speculative %d", p.CacheSize(), p.PrefetchStats().Unused)
			}
		})
	}
}
