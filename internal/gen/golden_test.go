package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"rewire/internal/graph"
)

// presetSeed is dataset.Seed, the seed every preset dataset is built with
// (dataset imports gen, so the constant is repeated here).
const presetSeed = 20130408

// fingerprint hashes NumNodes and every neighbor row (length, then the
// sorted ids) with FNV-1a, so two graphs share a fingerprint only if their
// CSR layouts are identical.
func fingerprint(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(buf[:], x)
		h.Write(buf[:])
	}
	put(uint32(g.NumNodes()))
	for u := 0; u < g.NumNodes(); u++ {
		row := g.Neighbors(graph.NodeID(u))
		put(uint32(len(row)))
		for _, v := range row {
			put(uint32(v))
		}
	}
	return h.Sum64()
}

// TestSocialGoldenFingerprints pins the exact output of the Social model on
// the graphs every experiment and benchmark is built from. The presets,
// fixture transcripts, bench counters and relerr truths all assume these
// topologies, so any change to the generator must leave them byte-identical.
func TestSocialGoldenFingerprints(t *testing.T) {
	social := func(cfg SocialConfig, seed uint64) func() *graph.Graph {
		return func() *graph.Graph { return mustSocial(cfg, seed) }
	}
	cases := []struct {
		name  string
		build func() *graph.Graph
		want  uint64
	}{
		{"EpinionsSmall", func() *graph.Graph { return EpinionsLikeSmall(presetSeed) }, 0x6f29962ad7f1d1a0},
		{"SlashdotASmall", func() *graph.Graph { return SlashdotLikeSmall(presetSeed) }, 0x2cd1d439b983f01c},
		{"SlashdotBSmall", func() *graph.Graph { return SlashdotLikeSmall(presetSeed + 1) }, 0x5e6d5551b936422d},
		{"GooglePlusSmall", func() *graph.Graph { return GooglePlusLikeSmall(presetSeed) }, 0x2a297a92e1986374},
		{"SlashdotB", func() *graph.Graph { return SlashdotBLike(presetSeed) }, 0x6d0d7094787127c5},
		{"GooglePlus", func() *graph.Graph { return GooglePlusLike(presetSeed) }, 0x377a3c1d4e5512b3},
		{"Social20k400k", social(SocialConfig{Nodes: 20000, TargetEdges: 400000}, 7), 0x9ff0b436b313edc6},
		{"OneSuperCluster", social(SocialConfig{Nodes: 5000, TargetEdges: 30000, SuperClusters: 1}, 3), 0xc84b6ec78100e6d4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.build()
			if got := fingerprint(g); got != c.want {
				t.Errorf("fingerprint %#x, want %#x (%d nodes, %d edges)", got, c.want, g.NumNodes(), g.NumEdges())
			}
		})
	}
}
