package gen

import (
	"fmt"
	"math"

	"rewire/internal/graph"
	"rewire/internal/rng"
)

// SocialConfig parameterizes the calibrated "tight community" social-graph
// model used as the stand-in for the paper's SNAP snapshots and Google Plus
// crawl. The model produces the two properties the paper's technique feeds
// on: a heavy-tailed degree distribution, and many small dense pockets in
// which members' degrees are comparable to the pocket size — exactly the
// regime where the Theorem 3 removal criterion (|N(u)∩N(v)| ≳ max(ku,kv)-2)
// fires, and which gives real OSNs their unexpectedly low conductance [18].
type SocialConfig struct {
	Nodes        int     // number of nodes
	TargetEdges  int     // approximate edge count of the output
	Gamma        float64 // power-law exponent of the degree distribution (default 2.3)
	MinDegree    int     // smallest degree (default 3)
	MaxDegree    int     // largest degree (default ~2*sqrt(2m))
	Mixing       float64 // fraction of a gateway node's stubs wired across communities (default 0.4)
	Slack        float64 // community size ≈ Slack * member degree + 2 (default 1.25)
	MinCommunity int     // smallest community size (default 6)
	// GatewayFraction is the fraction of each community's members that
	// carry inter-community edges (default 0.2). Everyone else keeps all
	// their connections inside the pocket, which is what makes real OSN
	// communities the deep random-walk traps of [18]: a walk escapes only
	// through the few gateways.
	GatewayFraction float64
	// SuperClusters splits the communities into this many loosely-coupled
	// macro regions (default 2; 1 disables). Gateways wire within their
	// region; only BridgeFraction of the edge budget crosses regions. This
	// reproduces the global sparse cuts behind the "mixing time much larger
	// than anticipated" finding of [18] that motivates the paper.
	SuperClusters int
	// BridgeFraction is the fraction of TargetEdges crossing super-cluster
	// boundaries (default 0.004).
	BridgeFraction float64
}

func (c SocialConfig) withDefaults() SocialConfig {
	if c.Gamma == 0 {
		c.Gamma = 2.3
	}
	if c.MinDegree == 0 {
		c.MinDegree = 3
	}
	if c.MaxDegree == 0 {
		c.MaxDegree = int(2 * math.Sqrt(float64(2*c.TargetEdges)))
		if c.MaxDegree >= c.Nodes {
			c.MaxDegree = c.Nodes - 1
		}
	}
	if c.Mixing == 0 {
		c.Mixing = 0.4
	}
	if c.Slack == 0 {
		c.Slack = 1.25
	}
	if c.MinCommunity == 0 {
		c.MinCommunity = 6
	}
	if c.GatewayFraction == 0 {
		c.GatewayFraction = 0.2
	}
	if c.SuperClusters == 0 {
		c.SuperClusters = 2
	}
	if c.BridgeFraction == 0 {
		c.BridgeFraction = 0.004
	}
	return c
}

// PowerLawDegrees draws a degree sequence with tail exponent gamma whose sum
// is 2*m (so it is realizable as m edges): continuous Pareto quantiles are
// scaled by a factor found with binary search, clamped to [kmin, kmax], and
// the sum parity is fixed up on a random node. kmin is raised to at least 1
// and kmax to at least kmin. It panics unless n*kmin <= 2*m <= n*kmax: no
// sequence in range has that sum, and nudging toward it would never end.
func PowerLawDegrees(n, m int, gamma float64, kmin, kmax int, r *rng.Rand) []int {
	if n <= 0 {
		return nil
	}
	kmin, kmax, ok := degreeRange(n, m, kmin, kmax)
	if !ok {
		panic(fmt.Sprintf("gen: PowerLawDegrees: no %d degrees in [%d, %d] sum to %d", n, kmin, kmax, 2*m))
	}
	base := make([]float64, n)
	for i := range base {
		u := r.Float64()
		// Pareto quantile with minimum 1: (1-u)^(-1/(gamma-1)).
		base[i] = math.Pow(1-u, -1/(gamma-1))
	}
	// degreeAt scales weight w by alpha and clamps it to [kmin, kmax].
	degreeAt := func(alpha, w float64) int {
		return min(max(int(math.Round(alpha*w)), kmin), kmax)
	}
	target := 2 * m
	lo, hi := 1e-3, float64(kmax)
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		sum := 0
		for _, w := range base {
			sum += degreeAt(mid, w)
		}
		if sum < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	ks := make([]int, n)
	sum := 0
	for i, w := range base {
		ks[i] = degreeAt(hi, w)
		sum += ks[i]
	}
	// Nudge random nodes to close the residual gap (clamping makes an exact
	// hit by scaling alone impossible in general).
	for sum != target {
		i := r.Intn(n)
		switch {
		case sum < target && ks[i] < kmax:
			ks[i]++
			sum++
		case sum > target && ks[i] > kmin:
			ks[i]--
			sum--
		}
	}
	return ks
}

// degreeRange clamps a degree range as PowerLawDegrees does, kmin to at
// least 1 and kmax to at least kmin, and reports whether n degrees in it
// can sum to 2*m.
func degreeRange(n, m, kmin, kmax int) (int, int, bool) {
	kmin = max(kmin, 1)
	kmax = max(kmax, kmin)
	return kmin, kmax, n*kmin <= 2*m && 2*m <= n*kmax
}

// Social generates a graph from cfg. The construction:
//
//  1. draw a power-law degree sequence summing to 2*TargetEdges;
//  2. sort nodes by degree and chunk them into communities sized
//     ≈ Slack*degree+2, so low-degree nodes land in pockets they can almost
//     fill (near-cliques) while hubs overflow into the global stage;
//  3. wire ⌈(1-Mixing)·k⌉ of each node's stubs inside its community and the
//     rest across communities, both by randomized stub matching that
//     rejects self-loops and duplicates. Membership is fixed before wiring
//     starts, so a pair inside one community is checked against one bit of
//     that community's triangular bitset (small enough to stay in cache
//     while the community is wired), and only pairs across communities go
//     to a hash set;
//  4. connect leftover components to the giant with one edge each.
//
// The result has NumNodes() == cfg.Nodes and an edge count within a few
// percent of cfg.TargetEdges (exact counts are reported by the harness).
// A target whose mean degree 2*TargetEdges/Nodes falls outside
// [MinDegree, MaxDegree] is an error.
func Social(cfg SocialConfig, r *rng.Rand) (*graph.Graph, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < cfg.MinCommunity {
		return nil, fmt.Errorf("gen: Social needs at least %d nodes", cfg.MinCommunity)
	}
	maxEdges := cfg.Nodes * (cfg.Nodes - 1) / 2
	if cfg.TargetEdges < cfg.Nodes || cfg.TargetEdges > maxEdges {
		return nil, fmt.Errorf("gen: TargetEdges %d out of range [%d, %d]", cfg.TargetEdges, cfg.Nodes, maxEdges)
	}
	if kmin, kmax, ok := degreeRange(cfg.Nodes, cfg.TargetEdges, cfg.MinDegree, cfg.MaxDegree); !ok {
		return nil, fmt.Errorf("gen: TargetEdges %d needs a mean degree of %.3g, outside the degree range [%d, %d]",
			cfg.TargetEdges, 2*float64(cfg.TargetEdges)/float64(cfg.Nodes), kmin, kmax)
	}
	n := cfg.Nodes
	degs := PowerLawDegrees(n, cfg.TargetEdges, cfg.Gamma, cfg.MinDegree, cfg.MaxDegree, r)

	// Chunk degree-sorted nodes into communities. The random permutation
	// breaks ties; a counting sort by degree keeps it stable.
	order := sortByDegree(r.Perm(n), degs)
	var communities [][]graph.NodeID
	for i := 0; i < n; {
		want := int(math.Round(cfg.Slack*float64(degs[order[i]]))) + 2
		if want < cfg.MinCommunity {
			want = cfg.MinCommunity
		}
		if rem := n - i; want > rem || rem-want < cfg.MinCommunity {
			want = rem
		}
		mem := make([]graph.NodeID, want)
		for j := 0; j < want; j++ {
			mem[j] = graph.NodeID(order[i+j])
		}
		communities = append(communities, mem)
		i += want
	}

	w := newWiring(n, communities, cfg.TargetEdges)

	// Intra-community wiring: randomized stub matching, then a greedy
	// completion pass (random matching alone cannot realize near-cliques —
	// late stubs keep colliding with existing edges). The last (highest
	// degree, by construction order) GatewayFraction of members are the
	// community's gateways: only they reserve stubs for inter-community
	// edges; everyone else aims all connections inside the pocket.
	var targets []int // by position in the community
	var stubs []graph.NodeID
	for _, mem := range communities {
		s := len(mem)
		gateways := int(math.Round(cfg.GatewayFraction * float64(s)))
		if gateways < 1 {
			gateways = 1
		}
		targets, stubs = targets[:0], stubs[:0]
		for idx, u := range mem {
			t := degs[u]
			if idx >= s-gateways {
				t = int(math.Ceil((1 - cfg.Mixing) * float64(degs[u])))
			}
			if t > s-1 {
				t = s - 1
			}
			targets = append(targets, t)
			for j := 0; j < t; j++ {
				stubs = append(stubs, u)
			}
		}
		w.matchStubs(stubs, r, 4)
		// Greedy completion of whatever the random matching left unfilled.
		for i, u := range mem {
			if w.used[u] >= targets[i] {
				continue
			}
			for j := i + 1; j < s && w.used[u] < targets[i]; j++ {
				v := mem[j]
				if w.used[v] >= targets[j] {
					continue
				}
				if w.addEdge(u, v) {
					w.used[u]++
					w.used[v]++
				}
			}
		}
	}

	// Inter-community wiring from the residual stubs, region by region:
	// each community belongs to one super-cluster and its gateways wire
	// within it; a thin bridge budget crosses regions.
	pools := make([][]graph.NodeID, cfg.SuperClusters)
	for u := 0; u < n; u++ {
		rg := int(w.comm[u]) % cfg.SuperClusters
		for j := w.used[u]; j < degs[u]; j++ {
			pools[rg] = append(pools[rg], graph.NodeID(u))
		}
	}
	for rg := range pools {
		w.matchStubs(pools[rg], r, 6)
	}
	if cfg.SuperClusters > 1 {
		bridges := int(math.Round(cfg.BridgeFraction * float64(cfg.TargetEdges)))
		if bridges < cfg.SuperClusters-1 {
			bridges = cfg.SuperClusters - 1 // keep regions connectable
		}
		for added, attempts := 0, 200*bridges; added < bridges && attempts > 0; attempts-- {
			ra := r.Intn(cfg.SuperClusters)
			rb := r.Intn(cfg.SuperClusters)
			if ra == rb || len(pools[ra]) == 0 || len(pools[rb]) == 0 {
				continue
			}
			if w.addEdge(rng.Choice(r, pools[ra]), rng.Choice(r, pools[rb])) {
				added++
			}
		}
	}

	// Top up to the exact edge target with degree-weighted random pairs
	// inside random regions (bounded attempts; an unlucky draw sequence
	// leaves the count a hair short rather than looping forever).
	if deficit := cfg.TargetEdges - w.edges; deficit > 0 {
		for attempts := 60 * deficit; attempts > 0 && w.edges < cfg.TargetEdges; attempts-- {
			pool := pools[r.Intn(cfg.SuperClusters)]
			if len(pool) < 2 {
				continue
			}
			w.addEdge(rng.Choice(r, pool), rng.Choice(r, pool))
		}
	}

	return Connect(w.b.Build(), r), nil
}

// sortByDegree stably sorts the node ids in order by degs with a counting
// sort and returns the sorted copy.
func sortByDegree(order, degs []int) []int {
	maxDeg := 0
	for _, k := range degs {
		maxDeg = max(maxDeg, k)
	}
	start := make([]int, maxDeg+2)
	for _, k := range degs {
		start[k+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	sorted := make([]int, len(order))
	for _, u := range order {
		sorted[start[degs[u]]] = u
		start[degs[u]]++
	}
	return sorted
}

// wiring is Social's edge sink: it rejects self-loops and duplicates,
// forwards every new edge to the builder, and counts each node's wired
// stubs. Membership is fixed up front, so a pair inside one community is a
// bit in that community's triangular bitset (bit j(j-1)/2+i for positions
// i < j) and only a pair across communities needs the hash set.
type wiring struct {
	b     *graph.Builder
	comm  []int32 // community of each node
	pos   []int32 // position of each node within its community
	base  []int   // first bit of each community's triangle in bits
	bits  []uint64
	cross map[graph.EdgeKey]struct{}
	edges int            // edges added so far
	used  []int          // wired stubs per node
	spare []graph.NodeID // matchStubs' buffer of unmatched stubs
}

// newWiring sizes a wiring for about targetEdges edges, of which the
// presets carry roughly a fifth across communities.
func newWiring(n int, communities [][]graph.NodeID, targetEdges int) *wiring {
	w := &wiring{
		b:     graph.NewBuilder(n),
		comm:  make([]int32, n),
		pos:   make([]int32, n),
		base:  make([]int, len(communities)),
		cross: make(map[graph.EdgeKey]struct{}, targetEdges/4),
		used:  make([]int, n),
	}
	w.b.Grow(targetEdges)
	bits := 0
	for c, mem := range communities {
		w.base[c] = bits
		bits += len(mem) * (len(mem) - 1) / 2
		for i, u := range mem {
			w.comm[u], w.pos[u] = int32(c), int32(i)
		}
	}
	w.bits = make([]uint64, (bits+63)/64)
	return w
}

// addEdge adds (u, v) unless it is a self-loop or already present, and
// reports whether it did.
func (w *wiring) addEdge(u, v graph.NodeID) bool {
	if u == v {
		return false
	}
	if c := w.comm[u]; c == w.comm[v] {
		i, j := int(w.pos[u]), int(w.pos[v])
		if i > j {
			i, j = j, i
		}
		bit := w.base[c] + j*(j-1)/2 + i
		word, mask := bit>>6, uint64(1)<<(bit&63)
		if w.bits[word]&mask != 0 {
			return false
		}
		w.bits[word] |= mask
	} else {
		k := graph.KeyOf(u, v)
		if _, ok := w.cross[k]; ok {
			return false
		}
		w.cross[k] = struct{}{}
	}
	w.edges++
	w.b.AddEdge(u, v)
	return true
}

// matchStubs pairs stubs randomly, adding an edge for each pair and counting
// both endpoints in used; pairs that fail (self-loop or duplicate) are
// retried in up to `rounds` extra passes. stubs is shuffled in place.
func (w *wiring) matchStubs(stubs []graph.NodeID, r *rng.Rand, rounds int) {
	pending := stubs
	for pass := 0; pass <= rounds && len(pending) >= 2; pass++ {
		// Fisher–Yates, drawing the same sequence as rng.Shuffle.
		for i := len(pending) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			pending[i], pending[j] = pending[j], pending[i]
		}
		// The failures of the first pass go to the spare buffer; later
		// passes filter that buffer in place (a write never passes the pair
		// just read).
		leftover := w.spare[:0]
		for i := 0; i+1 < len(pending); i += 2 {
			u, v := pending[i], pending[i+1]
			if w.addEdge(u, v) {
				w.used[u]++
				w.used[v]++
			} else {
				leftover = append(leftover, u, v)
			}
		}
		if len(pending)%2 == 1 {
			leftover = append(leftover, pending[len(pending)-1])
		}
		w.spare = leftover
		if len(leftover) == len(pending) {
			break // no progress; give up
		}
		pending = leftover
	}
}
