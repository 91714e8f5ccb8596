package rewire_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"rewire"
	"rewire/internal/store"
)

// TestNeighborAliasingProviderCopies proves the satellite contract: slices a
// Provider hands out at the public API boundary are defensive copies, so a
// caller scribbling over them cannot corrupt the cached state that feeds
// billing and the Theorem 5 criterion.
func TestNeighborAliasingProviderCopies(t *testing.T) {
	ctx := context.Background()
	g, err := rewire.NewGraph(4, [][2]rewire.NodeID{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	p := rewire.Simulate(g, rewire.Limits{})

	want := append([]rewire.NodeID(nil), p.Neighbors(0)...)
	if len(want) != 2 {
		t.Fatalf("unexpected degree: %v", want)
	}

	// Vandalize every public access path.
	n1 := p.Neighbors(0)
	n1[0] = 99
	n2, err := p.NeighborsContext(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	n2[1] = -7
	batch, err := p.QueryBatch(ctx, []rewire.NodeID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	batch[0][0] = 42
	batch[1][0] = 42

	// The cache must be intact: same list, same bill (2 distinct demands,
	// nodes 0 and 2; every repeat access was a cache hit).
	if got := p.Neighbors(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("cached neighbors corrupted: %v, want %v", got, want)
	}
	if q := p.UniqueQueries(); q != 2 {
		t.Fatalf("UniqueQueries = %d, want 2 (mutation must not force refetches)", q)
	}

	// And a walk over the same provider still sees the true topology.
	s, err := rewire.NewSession(p, rewire.WithSeed(3), rewire.WithAlgorithm(rewire.AlgSRW))
	if err != nil {
		t.Fatal(err)
	}
	for v := range s.Nodes(ctx, 50) {
		if v < 0 || int(v) >= g.NumNodes() {
			t.Fatalf("walk left the graph: %d", v)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestNeighborAliasingGraphViewAppendSafe pins the read-only-view contract of
// the zero-copy path: Graph.Neighbors views have clipped capacity, so an
// append cannot overwrite the adjacent CSR row.
func TestNeighborAliasingGraphViewAppendSafe(t *testing.T) {
	g, err := rewire.NewGraph(4, [][2]rewire.NodeID{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	nbrs := g.Neighbors(1)
	if cap(nbrs) != len(nbrs) {
		t.Fatalf("view capacity %d exceeds length %d", cap(nbrs), len(nbrs))
	}
	_ = append(nbrs, 99)
	if !reflect.DeepEqual(g.Neighbors(2), []rewire.NodeID{1, 3}) {
		t.Fatal("append through a view corrupted the next row")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreShardsInvariance is the storage engine's correctness bar: for a
// fixed seed, trajectories and query bills are byte-identical at any shard
// count — sharding is a contention optimization, never a behavior change.
// Shard counts follow GOMAXPROCS (store.DefaultShards), so the test varies
// it the way machines do: 1, 4 and 64 give 8, 16 and 256 shards.
func TestStoreShardsInvariance(t *testing.T) {
	ctx := context.Background()
	// Two deterministic workload shapes: a partitioned SRW fleet (each
	// member's trajectory depends only on its own RNG stream — the shape the
	// CI bench-gate relies on) exercising the client cache's lock stripes,
	// and a single-walker MTO run exercising the sharded overlay.
	// Shared-overlay fleets are excluded on purpose: their guarded rewiring
	// ops resolve races by arrival order, which no storage layout can make
	// schedule-free.
	run := func(mto bool) ([]rewire.Sample, int64) {
		g, err := rewire.SocialGraph(600, 2400, 11)
		if err != nil {
			t.Fatal(err)
		}
		p := rewire.Simulate(g, rewire.Limits{})
		opts := []rewire.Option{rewire.WithSeed(7)}
		if mto {
			opts = append(opts, rewire.WithAlgorithm(rewire.AlgMTO))
		} else {
			opts = append(opts,
				rewire.WithAlgorithm(rewire.AlgSRW),
				rewire.WithFleet(4),
				rewire.WithPartitionedBudget(true),
			)
		}
		s, err := rewire.NewSession(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := s.Samples(ctx, 400)
		if err != nil {
			t.Fatal(err)
		}
		// Arrival order in the merged stream is not deterministic: group by
		// walker for a canonical transcript.
		byWalker := make([][]rewire.Sample, s.Walkers())
		for _, smp := range samples {
			byWalker[smp.Walker] = append(byWalker[smp.Walker], smp)
		}
		var canon []rewire.Sample
		for _, part := range byWalker {
			canon = append(canon, part...)
		}
		if mto {
			removed, added := s.Rewired()
			if removed+added == 0 {
				t.Fatal("MTO session rewired nothing — workload too small to be meaningful")
			}
		}
		return canon, p.UniqueQueries()
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, mto := range []bool{false, true} {
		var refSamples []rewire.Sample
		var refQueries int64
		for _, pc := range []struct{ procs, shards int }{{1, 8}, {4, 16}, {64, 256}} {
			runtime.GOMAXPROCS(pc.procs)
			if got := store.DefaultShards(); got != pc.shards {
				t.Fatalf("GOMAXPROCS %d: DefaultShards = %d, want %d", pc.procs, got, pc.shards)
			}
			samples, queries := run(mto)
			if refSamples == nil {
				refSamples, refQueries = samples, queries
				continue
			}
			if queries != refQueries {
				t.Fatalf("mto=%v shards=%d: UniqueQueries = %d, want %d", mto, pc.shards, queries, refQueries)
			}
			if !reflect.DeepEqual(samples, refSamples) {
				t.Fatalf("mto=%v shards=%d: trajectories diverged from the 8-shard run", mto, pc.shards)
			}
		}
	}
}
