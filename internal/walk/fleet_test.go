package walk

import (
	"context"
	"errors"
	"testing"

	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/stats"
)

func TestFleetDrawsExactBudgetWithProvenance(t *testing.T) {
	g := gen.Cycle(12)
	f := NewFleetSimple(g, []graph.NodeID{0, 3, 6, 9}, rng.New(1))
	const total = 1000
	samples := f.Samples(total)
	if len(samples) != total {
		t.Fatalf("drew %d samples, want %d", len(samples), total)
	}
	counts := PerWalker(samples, len(f.Members()))
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != total {
		t.Errorf("per-walker counts sum to %d, want %d", sum, total)
	}
	for _, s := range samples {
		if s.Walker < 0 || s.Walker >= len(f.Members()) {
			t.Fatalf("out-of-range walker index %d", s.Walker)
		}
		// On a cycle every node has degree 2, so every SRW sample must carry
		// stationary weight 2 regardless of interleaving.
		if s.Weight != 2 {
			t.Errorf("sample weight %v, want 2 on a cycle", s.Weight)
		}
	}
}

func TestFleetSharesQueryBudget(t *testing.T) {
	g := gen.Barbell(8)
	svc := osn.NewService(g, nil, osn.Config{})
	client := osn.NewClient(svc)
	// Two members starting in the two different cliques share the cache, so
	// the fleet's whole cost stays bounded by the node count, under real
	// concurrency (run with -race).
	f := NewFleetSimple(client, []graph.NodeID{0, 8}, rng.New(3))
	f.Samples(2000)
	if client.UniqueQueries() > int64(g.NumNodes()) {
		t.Errorf("cost %d exceeds node count", client.UniqueQueries())
	}
	if client.UniqueQueries() < 10 {
		t.Errorf("cost %d too small for two-clique coverage", client.UniqueQueries())
	}
}

func TestFleetStationaryStillDegreeProportional(t *testing.T) {
	g := gen.Lollipop(6, 4)
	starts := []graph.NodeID{0, 3, 7, 9}
	f := NewFleetSimple(g, starts, rng.New(2))
	h := stats.NewCountHistogram(g.NumNodes())
	stream, stop := f.StreamContext(context.Background(), 400000)
	defer stop()
	for s := range stream {
		h.Observe(int(s.Node))
	}
	want := make([]float64, g.NumNodes())
	for u := range want {
		want[u] = float64(g.Degree(graph.NodeID(u)))
	}
	if tv, err := stats.TotalVariation(h.Distribution(), want); err != nil || tv > 0.02 {
		t.Errorf("fleet SRW TV distance = %v", tv)
	}
}

func TestFleetStreamStopEarly(t *testing.T) {
	g := gen.Cycle(12)
	f := NewFleetSimple(g, []graph.NodeID{0, 3, 6, 9}, rng.New(8))
	// A budget that would take forever to drain: stop() must shut the
	// stream down anyway (the range below terminates only if every walker
	// goroutine exits and the channel closes).
	stream, stop := f.StreamContext(context.Background(), 1<<30)
	got := 0
	for range stream {
		got++
		if got == 100 {
			stop()
		}
	}
	if got < 100 {
		t.Fatalf("drew %d samples before the stream closed, want >= 100", got)
	}
	stop() // idempotent after close
}

func TestFleetPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFleet()
}

// weightFailer steps onto node 3, and its weight read fails the way an
// exact- or sampled-weight read does when its neighbor query is cancelled
// or over budget: it latches a sticky error and returns garbage. The
// embedded Walker is nil: the fleet never touches chain state.
type weightFailer struct {
	Walker
	err error
}

func (w *weightFailer) Current() graph.NodeID { return 3 }
func (w *weightFailer) Step() graph.NodeID    { return 3 }
func (w *weightFailer) Err() error            { return w.err }

func (w *weightFailer) StationaryWeight(graph.NodeID) float64 {
	w.err = errors.New("weight read failed")
	return 0
}

func TestFleetDropsFailedWeightRead(t *testing.T) {
	f := NewFleet(&weightFailer{})
	if got := f.Samples(5); len(got) != 0 {
		t.Errorf("fleet emitted %+v from a failed weight read", got)
	}
	if got := NewFleet(&weightFailer{}).SamplesPartitioned(5); len(got) != 0 {
		t.Errorf("partitioned fleet emitted %+v from a failed weight read", got)
	}
}
