package walk

import (
	"context"
	"errors"
	"testing"
	"time"

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

// counted counts the steps its walker takes. Only the member's goroutine
// touches steps; the test reads it after the stream has ended.
type counted struct {
	Walker
	steps int
}

func (c *counted) Step() graph.NodeID {
	c.steps++
	return c.Walker.Step()
}

// countedFleet builds k counted SRW members on a cycle served by src.
func countedFleet(k int, src Source) (*Fleet, []*counted) {
	r := rng.New(5)
	cs := make([]*counted, k)
	members := make([]Walker, k)
	for i := range cs {
		cs[i] = &counted{Walker: NewSimple(src, graph.NodeID(i*25), r.Split())}
		members[i] = cs[i]
	}
	return NewFleet(members...), cs
}

// TestFleetQuiesceDeliversEverySample: a quiesced run hands over each
// member's partial block before the member retires, so every sample a
// member stepped reaches the consumer. At 100 µs a step, a member flushes
// about ten samples a block, so it is mid-block when the quiesce lands.
func TestFleetQuiesceDeliversEverySample(t *testing.T) {
	f, cs := countedFleet(4, slowSource{Source: gen.Cycle(100), latency: 100 * time.Microsecond})
	samples, stop := f.StreamContext(context.Background(), 1<<30)
	defer stop()
	got := make([]int, len(cs))
	n := 0
	for s := range samples {
		got[s.Walker]++
		if n++; n == 300 {
			f.Quiesce()
		}
	}
	for i, c := range cs {
		if got[i] != c.steps {
			t.Errorf("member %d stepped %d times but delivered %d samples", i, c.steps, got[i])
		}
	}
}

// slowSource answers every neighbor query after a fixed latency.
type slowSource struct {
	Source
	latency time.Duration
}

func (s slowSource) Neighbors(v graph.NodeID) []graph.NodeID {
	time.Sleep(s.latency)
	return s.Source.Neighbors(v)
}

// TestFleetStreamsSlowSourcePerSample: over a source with 2 ms latency a
// member hands over its first sample as soon as the flush bound has passed,
// long before a block could fill (blockSize steps of 2 ms each).
func TestFleetStreamsSlowSourcePerSample(t *testing.T) {
	const latency = 2 * time.Millisecond
	src := slowSource{Source: gen.Cycle(100), latency: latency}
	f := NewFleetSimple(src, []graph.NodeID{0, 50}, rng.New(3))
	t0 := time.Now()
	samples, stop := f.StreamContext(context.Background(), 1000)
	for range samples {
		break
	}
	first := time.Since(t0)
	stop()
	for range samples { // wait for both members to retire
	}
	if full := blockSize * latency; first >= full {
		t.Fatalf("first sample took %v, as long as filling a block (%v)", first, full)
	}
}

// TestFleetStopRetiresWithinOneBlock: after stop every member retires, and
// each stepped at most one block past what the consumer received.
func TestFleetStopRetiresWithinOneBlock(t *testing.T) {
	f, cs := countedFleet(4, gen.Cycle(100))
	samples, stop := f.StreamContext(context.Background(), 1<<30)
	got := make([]int, len(cs))
	n := 0
	for s := range samples {
		got[s.Walker]++
		if n++; n == 5000 {
			stop()
		}
	}
	for i, c := range cs {
		if lag := c.steps - got[i]; lag < 0 || lag > blockSize {
			t.Errorf("member %d stepped %d times, delivered %d: %d undelivered, want 0..%d",
				i, c.steps, got[i], lag, blockSize)
		}
	}
}

// TestFleetStreamAllocsPerSample: in steady state a zero-latency SRW fleet
// stream allocates nothing per sample — blocks are recycled — so a run 200
// blocks long allocates no more than a one-block run.
func TestFleetStreamAllocsPerSample(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	f := NewFleetSimple(gen.Cycle(1000), []graph.NodeID{0, 500}, rng.New(1))
	allocs := func(total int) float64 {
		return testing.AllocsPerRun(20, func() {
			samples, stop := f.StreamContext(context.Background(), total)
			for range samples {
			}
			stop()
		})
	}
	short, long := allocs(blockSize), allocs(200*blockSize)
	if long > short {
		t.Fatalf("a %d-sample run allocates %v times, a %d-sample run %v: %.4f allocations per extra sample",
			200*blockSize, long, blockSize, short, (long-short)/float64(199*blockSize))
	}
}

// TestFleetMembersLeaveOnExit: a retiring member leaves its seat once,
// whether its share ran out (partitioned), the shared budget did (racing),
// or the run was stopped, and a prefetching member forwards its leave.
func TestFleetMembersLeaveOnExit(t *testing.T) {
	g := gen.Cycle(64)
	for _, tc := range []struct {
		name string
		run  func(f *Fleet)
	}{
		{"partitioned", func(f *Fleet) { f.SamplesPartitioned(40) }},
		{"racing", func(f *Fleet) { f.Samples(40) }},
		{"stopped", func(f *Fleet) {
			stream, stop := f.StreamContext(context.Background(), 1000)
			for range stream {
				stop()
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := NewBound(&graphContextSource{g})
			seats := make([]*testSeat, 4)
			members := make([]Walker, len(seats))
			for i := range seats {
				seats[i] = &testSeat{}
				var w Walker = NewSimple(root.Member(seats[i]), graph.NodeID(16*i), rng.New(uint64(i+1)))
				if i%2 == 1 {
					w = WithPrefetch(w, NewNextHop(root))
				}
				members[i] = w
			}
			tc.run(NewFleet(members...))
			for i, s := range seats {
				if n := s.left.Load(); n != 1 {
					t.Errorf("member %d left %d times, want once", i, n)
				}
			}
		})
	}
}

// graphContextSource is a graph read through the ContextSource interface.
type graphContextSource struct{ g *graph.Graph }

func (s *graphContextSource) Neighbors(v graph.NodeID) []graph.NodeID { return s.g.Neighbors(v) }
func (s *graphContextSource) Degree(v graph.NodeID) int               { return s.g.Degree(v) }
func (s *graphContextSource) NeighborsContext(ctx context.Context, v graph.NodeID) ([]graph.NodeID, error) {
	return s.g.Neighbors(v), ctx.Err()
}
