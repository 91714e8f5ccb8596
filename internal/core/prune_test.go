package core

import (
	"testing"

	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
)

// seqCache is a DegreeCache over nodes 0..len-1: entry w is w's cached
// degree, or -1 when w is not cached.
type seqCache []int

func (c seqCache) CachedDegree(w graph.NodeID) (int, bool) {
	if k := c[w]; k >= 0 {
		return k, true
	}
	return 0, false
}

// referenceLHS returns the doubled left sides of Theorem 3 and Theorem 5
// for a common-neighbor list, with a full degree scan and no pruning: the
// criterion exactly as the paper states it. An edge passes a theorem when
// its left side exceeds max(ku, kv).
func referenceLHS(common []graph.NodeID, cache DegreeCache) (t3, t5 int) {
	nStar, bonus := 0, 0
	for _, w := range common {
		if kw, ok := cache.CachedDegree(w); ok && kw >= 2 && kw <= 3 {
			nStar++
			bonus += 4 - kw
		}
	}
	rest := len(common) - nStar
	return 2 * ((len(common)+1)/2 + 1), 2*((rest+1)/2+1) + bonus
}

// TestPrunedCriterionMatchesFullScan enumerates every common-neighbor list of
// length 0..8 whose members are each absent from the cache or cached at
// degree 1, 2, 3 or 5. The pruned Removable and RemovableTheorem5 must agree
// with the full scan, and whenever the degree-only skip rejects an edge, the
// full scan must not remove it for any common count the degrees allow.
// Lists of up to 6 members meet every pair of endpoint degrees in 1..20;
// the longer ones, to keep the run short, meet equal degrees 1..20.
func TestPrunedCriterionMatchesFullScan(t *testing.T) {
	const maxCommon, maxDeg, allPairsUpTo = 8, 20, 6
	degrees := []int{-1, 1, 2, 3, 5}
	common := make([]graph.NodeID, maxCommon)
	for i := range common {
		common[i] = graph.NodeID(i)
	}
	cache := make(seqCache, maxCommon)
	check := func(cn []graph.NodeID, ku, kv, t3, t5 int) {
		m := max(ku, kv)
		if got, want := Removable(cn, ku, kv, cache), t3 > m || t5 > m; got != want {
			t.Fatalf("Removable(degrees %v, ku=%d, kv=%d) = %v, full scan says %v",
				cache[:len(cn)], ku, kv, got, want)
		}
		if got, want := RemovableTheorem5(cn, ku, kv, cache), t5 > m; got != want {
			t.Fatalf("RemovableTheorem5(degrees %v, ku=%d, kv=%d) = %v, full scan says %v",
				cache[:len(cn)], ku, kv, got, want)
		}
		if len(cn) <= min(ku, kv) && !degreesCanFire(ku, kv) && (t3 > m || t5 > m) {
			t.Fatalf("degree skip rejects ku=%d kv=%d, but the full scan removes it with degrees %v",
				ku, kv, cache[:len(cn)])
		}
	}
	lists := 0
	for c := 0; c <= maxCommon; c++ {
		combos := 1
		for range c {
			combos *= len(degrees)
		}
		for code := range combos {
			for i, x := 0, code; i < c; i, x = i+1, x/len(degrees) {
				cache[i] = degrees[x%len(degrees)]
			}
			cn := common[:c]
			t3, t5 := referenceLHS(cn, cache)
			for ku := 1; ku <= maxDeg; ku++ {
				if c > allPairsUpTo {
					check(cn, ku, ku, t3, t5)
					continue
				}
				for kv := 1; kv <= maxDeg; kv++ {
					check(cn, ku, kv, t3, t5)
				}
			}
			lists++
		}
	}
	if want := 1 + 5 + 25 + 125 + 625 + 3125 + 15625 + 78125 + 390625; lists != want {
		t.Fatalf("checked %d lists, want %d", lists, want)
	}
}

// TestDegreeSkipIsExact checks the degree-only skip against the largest left
// side any common-neighbor list allows: every common neighbor cached at
// degree 2, as many as the smaller degree.
func TestDegreeSkipIsExact(t *testing.T) {
	for ku := 1; ku <= 40; ku++ {
		for kv := 1; kv <= 40; kv++ {
			c := min(ku, kv)
			common := make([]graph.NodeID, c)
			cache := make(seqCache, c)
			for i := range common {
				common[i], cache[i] = graph.NodeID(i), 2
			}
			_, best := referenceLHS(common, cache)
			if canRemove := best > max(ku, kv); canRemove != degreesCanFire(ku, kv) {
				t.Errorf("ku=%d kv=%d: degreesCanFire = %v, but the best case removes = %v",
					ku, kv, degreesCanFire(ku, kv), canRemove)
			}
		}
	}
}

// TestDegreeGateIsExact checks the count-0 degree gate: whenever Theorem 3
// fails at min(ku, kv) common neighbors, the criterion without a degree cache
// rejects every common count the degrees allow.
func TestDegreeGateIsExact(t *testing.T) {
	common := make([]graph.NodeID, 40)
	for ku := 1; ku <= 40; ku++ {
		for kv := 1; kv <= 40; kv++ {
			if RemovableTheorem3(min(ku, kv), ku, kv) {
				continue
			}
			for c := 0; c <= min(ku, kv); c++ {
				if Removable(common[:c], ku, kv, nil) {
					t.Errorf("ku=%d kv=%d: the gate rejects, but %d common neighbors remove", ku, kv, c)
				}
			}
		}
	}
}

// TestDegreeGateOnlyAtCountZero pins the gate to a low-degree count of 0.
// Edge (0, 1) has degrees 4 and 7 and three common neighbors of degree 2:
// Theorem 3 fails for any common count, so the gate rejects the edge while
// none of them is cached, but once they are, Theorem 5 fires (2 + 3·2 > 7).
func TestDegreeGateOnlyAtCountZero(t *testing.T) {
	g := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4},
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 1, V: 4}, {U: 1, V: 5}, {U: 1, V: 6}, {U: 1, V: 7},
	})
	for _, cached := range []bool{false, true} {
		client := osn.NewClient(osn.NewService(g, nil, osn.Config{}))
		s := NewSampler(client, 0, RemovalOnlyConfig(), rng.New(1))
		if cached {
			for w := graph.NodeID(2); w <= 4; w++ {
				client.Neighbors(w)
			}
		}
		fires, t5Only := s.removableEdge(0, 1, s.ov.Neighbors(0), s.ov.Neighbors(1))
		if fires != cached || t5Only != cached {
			t.Errorf("common neighbors cached=%v (count %d): fires=%v t5Only=%v, want %v/%v",
				cached, client.LowDegreeCount(), fires, t5Only, cached, cached)
		}
	}
}

// TestPrunedCriterionNilCache pins the no-cache path to Theorem 3 alone.
func TestPrunedCriterionNilCache(t *testing.T) {
	common := make([]graph.NodeID, 8)
	for c := 0; c <= len(common); c++ {
		for ku := 1; ku <= 20; ku++ {
			for kv := 1; kv <= 20; kv++ {
				want := RemovableTheorem3(c, ku, kv)
				if got := Removable(common[:c], ku, kv, nil); got != want {
					t.Fatalf("Removable(c=%d, %d, %d, nil) = %v, want %v", c, ku, kv, got, want)
				}
				if got := RemovableTheorem5(common[:c], ku, kv, nil); got != want {
					t.Fatalf("RemovableTheorem5(c=%d, %d, %d, nil) = %v, want %v", c, ku, kv, got, want)
				}
			}
		}
	}
}

// countingCache counts degree lookups, to show the scan stops early.
type countingCache struct {
	seqCache
	lookups int
}

func (c *countingCache) CachedDegree(w graph.NodeID) (int, bool) {
	c.lookups++
	return c.seqCache.CachedDegree(w)
}

func TestTheorem5ScanStopsWhenSettled(t *testing.T) {
	common := []graph.NodeID{0, 1, 2, 3, 4, 5}
	// Two degree-2 neighbors lift the doubled left side to 2+2+2 = 6 > 5.
	hit := &countingCache{seqCache: seqCache{2, 2, -1, -1, -1, -1}}
	if !RemovableTheorem5(common, 5, 5, hit) || hit.lookups != 2 {
		t.Errorf("settled-true scan: lookups = %d, want 2", hit.lookups)
	}
	// Max degree 13: the left side can reach 2+2·6 = 14, but after two
	// uncached neighbors it is 4 and the other four add at most 8.
	miss := &countingCache{seqCache: seqCache{-1, -1, 2, 2, 2, 2}}
	if RemovableTheorem5(common, 13, 13, miss) || miss.lookups != 2 {
		t.Errorf("settled-false scan: lookups = %d, want 2", miss.lookups)
	}
	// 2·6+2 ≤ 14: no lookup at all.
	skip := &countingCache{seqCache: seqCache{2, 2, 2, 2, 2, 2}}
	if RemovableTheorem5(common, 14, 3, skip) || skip.lookups != 0 {
		t.Errorf("degree skip: lookups = %d, want 0", skip.lookups)
	}
}
