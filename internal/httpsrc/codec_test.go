package httpsrc

import (
	"testing"

	"rewire/internal/dataset"
	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/rng"
)

// BenchmarkDecodeBatch decodes the batch answers an SRW over the full Google
// Plus stand-in requests: its first 2,000 landings, 10 ids a request, as the
// reference server encodes them. "json" is the encoding/json reference.
func BenchmarkDecodeBatch(b *testing.B) {
	g := gen.GooglePlusLike(dataset.Seed)
	r := rng.New(1)
	v := graph.NodeID(r.Intn(g.NumNodes()))
	var reqs [][]graph.NodeID
	var bodies [][]byte
	var size int
	for range 200 {
		ids := make([]graph.NodeID, 10)
		for i := range ids {
			nbrs := g.Neighbors(v)
			v = nbrs[r.Intn(len(nbrs))]
			ids[i] = v
		}
		body := appendResults(nil, g, ids)
		reqs, bodies, size = append(reqs, ids), append(bodies, body), size+len(body)
	}
	for _, impl := range []struct {
		name   string
		decode func([]byte, []graph.NodeID) ([][]graph.NodeID, []error, error)
	}{{"hand", decodeBatch}, {"json", refDecodeBatch}} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(int64(size / len(bodies)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % len(bodies)
				if _, _, err := impl.decode(bodies[j], reqs[j]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
