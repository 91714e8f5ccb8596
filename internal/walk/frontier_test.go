package walk

import (
	"math"
	"slices"
	"testing"

	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/rng"
)

// walkSource is a PrefetchSource and CachedSource over a graph that plays
// the client's part deterministically: a node becomes demand-cached when
// the walk lands on it, and known (cached or in flight) when demanded or
// when a hint for it is accepted. Like a saturated prefetch pool, Prefetch
// accepts only the first hintsAccepted ids of a call and drops the rest.
// It appends every hint to log when logging is on.
type walkSource struct {
	g       *graph.Graph
	cached  []bool
	known   []bool
	logging bool
	log     []graph.NodeID
}

const hintsAccepted = 2

func newWalkSource(g *graph.Graph) *walkSource {
	return &walkSource{g: g, cached: make([]bool, g.NumNodes()), known: make([]bool, g.NumNodes())}
}

func (s *walkSource) Neighbors(v graph.NodeID) []graph.NodeID {
	s.cached[v], s.known[v] = true, true
	return s.g.Neighbors(v)
}

func (s *walkSource) Degree(v graph.NodeID) int { return len(s.Neighbors(v)) }
func (s *walkSource) Known(v graph.NodeID) bool { return s.known[v] }
func (s *walkSource) LowDegreeCount() int64     { return 0 }
func (s *walkSource) reset()                    { clear(s.cached); clear(s.known) }
func (s *walkSource) Prefetch(ids ...graph.NodeID) int {
	n := min(len(ids), hintsAccepted)
	for _, v := range ids[:n] {
		s.known[v] = true
	}
	if s.logging {
		s.log = append(s.log, ids...)
	}
	return n
}

func (s *walkSource) CachedNeighbors(v graph.NodeID) ([]graph.NodeID, bool) {
	if !s.cached[v] {
		return nil, false
	}
	return s.g.Neighbors(v), true
}

func (s *walkSource) CachedDegree(v graph.NodeID) (int, bool) {
	l, ok := s.CachedNeighbors(v)
	return len(l), ok
}

// mapFrontier is the reference ranking Frontier replaced: scores in a map,
// rescanned on every step, with top-k insertion looking each score up in
// the map. Its shed drops the lowest-ranked entries: the lowest scores,
// and among those the largest ids.
type mapFrontier struct {
	src     *walkSource
	scanned map[graph.NodeID]bool
	score   map[graph.NodeID]int
}

func (p *mapFrontier) Landed(from, to graph.NodeID) {
	p.scan(from)
	p.scan(to)
	p.src.Prefetch(to)
	if len(p.score) == 0 {
		return
	}
	best := make([]graph.NodeID, 0, frontierWidth)
	for v := range p.score {
		if p.src.Known(v) {
			delete(p.score, v)
			continue
		}
		i := len(best)
		for i > 0 {
			u := best[i-1]
			if p.score[u] > p.score[v] || (p.score[u] == p.score[v] && u < v) {
				break
			}
			i--
		}
		if i < frontierWidth {
			if len(best) < frontierWidth {
				best = append(best, 0)
			}
			copy(best[i+1:], best[i:])
			best[i] = v
		}
	}
	p.src.Prefetch(best...)
	for _, v := range best {
		delete(p.score, v)
	}
	for excess := len(p.score) - frontierCap; excess > 0; excess = len(p.score) - frontierCap {
		low := math.MaxInt
		for _, s := range p.score {
			low = min(low, s)
		}
		var lowest []graph.NodeID
		for v, s := range p.score {
			if s == low {
				lowest = append(lowest, v)
			}
		}
		slices.Sort(lowest)
		for _, v := range lowest[max(0, len(lowest)-excess):] {
			delete(p.score, v)
		}
	}
}

func (p *mapFrontier) scan(v graph.NodeID) {
	nbrs, ok := p.src.CachedNeighbors(v)
	if p.scanned[v] || !ok {
		return
	}
	p.scanned[v] = true
	for _, w := range nbrs {
		if !p.src.Known(w) {
			p.score[w]++
		}
	}
}

// frontierWalk is a seeded SRW trajectory over g: steps+1 nodes.
func frontierWalk(g *graph.Graph, steps int, seed uint64) []graph.NodeID {
	r := rng.New(seed)
	walk := []graph.NodeID{graph.NodeID(r.Intn(g.NumNodes()))}
	for range steps {
		nbrs := g.Neighbors(walk[len(walk)-1])
		walk = append(walk, nbrs[r.Intn(len(nbrs))])
	}
	return walk
}

// landWalk demands each node of walk in turn and lets p hint after each
// step, as Prefetched does.
func landWalk(src *walkSource, p Prefetcher, walk []graph.NodeID) {
	src.Neighbors(walk[0])
	for i := 1; i < len(walk); i++ {
		src.Neighbors(walk[i])
		p.Landed(walk[i-1], walk[i])
	}
}

// frontierTestGraph is shaped like the Google Plus preset at a tenth of its
// size: heavy-tailed enough that scanning a hub's list overflows the cap.
func frontierTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Social(gen.SocialConfig{Nodes: 24028, TargetEdges: 144166, Gamma: 2.4, Slack: 1.05}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFrontierMatchesMapRanking: over seeded walks on a social graph, the
// dense-slice Frontier emits exactly the hint sequence of the map-based
// ranking it replaced, shedding included.
func TestFrontierMatchesMapRanking(t *testing.T) {
	g := frontierTestGraph(t)
	for seed := uint64(1); seed <= 4; seed++ {
		walk := frontierWalk(g, 1500, seed)
		ref := newWalkSource(g)
		ref.logging = true
		landWalk(ref, &mapFrontier{src: ref, scanned: map[graph.NodeID]bool{}, score: map[graph.NodeID]int{}}, walk)

		src := newWalkSource(g)
		src.logging = true
		p := NewFrontier(src)
		shed := false
		src.Neighbors(walk[0])
		for i := 1; i < len(walk); i++ {
			src.Neighbors(walk[i])
			p.Landed(walk[i-1], walk[i])
			shed = shed || len(p.entries) == frontierCap
		}
		if !shed {
			t.Errorf("seed %d: the frontier never reached its cap, so shedding went untested", seed)
		}
		if !slices.Equal(src.log, ref.log) {
			first := min(len(src.log), len(ref.log))
			for j := range first {
				if src.log[j] != ref.log[j] {
					first = j
					break
				}
			}
			t.Fatalf("seed %d: hint sequences differ at hint %d of %d/%d", seed, first, len(src.log), len(ref.log))
		}
	}
}

// BenchmarkFrontierLanded times one step's ranking over seeded walks on a
// social graph, against the map-based ranking it replaced. The source is
// reset every walk, so the frontier keeps growing back to its cap.
func BenchmarkFrontierLanded(b *testing.B) {
	g := frontierTestGraph(b)
	walk := frontierWalk(g, 2000, 1)
	for _, impl := range []struct {
		name string
		mk   func(src *walkSource) Prefetcher
	}{
		{"slice", func(src *walkSource) Prefetcher { return NewFrontier(src) }},
		{"map", func(src *walkSource) Prefetcher {
			return &mapFrontier{src: src, scanned: map[graph.NodeID]bool{}, score: map[graph.NodeID]int{}}
		}},
	} {
		b.Run(impl.name, func(b *testing.B) {
			src := newWalkSource(g)
			p := impl.mk(src)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i%(len(walk)-1) + 1
				if j == 1 {
					b.StopTimer()
					src.reset()
					p = impl.mk(src)
					src.Neighbors(walk[0])
					b.StartTimer()
				}
				src.Neighbors(walk[j])
				p.Landed(walk[j-1], walk[j])
			}
		})
	}
}
