package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"rewire"
	"rewire/internal/estimate"
)

// newWorkload builds the named workload; nothing runs until setup.
func newWorkload(cfg config, tr *tracer) (workload, error) {
	switch cfg.workload {
	case "paper-estimate":
		return newPaperEstimate(cfg, tr), nil
	case "live-fleet":
		return newLiveFleet(cfg, tr), nil
	case "durable-crawl":
		return newDurableCrawl(cfg, tr), nil
	case "serve-jobs":
		return newServeJobs(cfg, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// opSeed derives operation i's walk seed from the run's seed (splitmix64),
// so every op of every run draws fresh, reproducible inputs.
func opSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// trajectory folds a session's samples: a per-walker FNV-1a hash of the node
// sequence (fleet members' merged arrival order varies, each member's own
// sequence does not), per-walker counts, and the importance-weighted
// average-degree estimate the samples give.
type trajectory struct {
	hashes []uint64
	counts []int
	est    estimate.ImportanceSampler
	skip   int // samples whose degree was not cached (never expected)
}

func newTrajectory(walkers int) *trajectory {
	t := &trajectory{hashes: make([]uint64, walkers), counts: make([]int, walkers)}
	for i := range t.hashes {
		t.hashes[i] = 14695981039346656037
	}
	return t
}

// step folds a sample into its walker's hash and count.
func (t *trajectory) step(smp rewire.Sample) {
	t.hashes[smp.Walker] = (t.hashes[smp.Walker] ^ uint64(uint32(smp.Node))) * 1099511628211
	t.counts[smp.Walker]++
}

// add folds a sample drawn from prov, estimate included.
func (t *trajectory) add(smp rewire.Sample, prov *rewire.Provider) {
	t.step(smp)
	// The walk demanded every node it stands on, so its degree is a free
	// cache read that bills nothing.
	deg, ok := prov.CachedDegree(smp.Node)
	if !ok || t.est.Add(float64(deg), smp.Weight) != nil {
		t.skip++
	}
}

// stream draws n samples from sess into t, recording one session.step span
// per sample — the gap since the same walker's previous sample — while the
// tracer is on.
func stream(ctx context.Context, sess *rewire.Session, n int, tr *tracer, prov *rewire.Provider, t *trajectory) (int, error) {
	on := tr.enabled()
	parent := spanFrom(ctx)
	last := make([]int64, sess.Walkers())
	if on {
		now := tr.now()
		for i := range last {
			last[i] = now
		}
	}
	got := 0
	for smp, err := range sess.Stream(ctx, n) {
		if err != nil {
			return got, err
		}
		if on {
			now := tr.now()
			tr.add(span{name: "session.step", parent: parent, start: last[smp.Walker], end: now,
				key1: "walker", val1: int64(smp.Walker), key2: "node", val2: int64(smp.Node)})
			last[smp.Walker] = now
		}
		t.add(smp, prov)
		got++
	}
	return got, nil
}

// checkCounts verifies a partitioned run gave every walker its share.
func checkCounts(t *trajectory, total int) error {
	k := len(t.counts)
	for w, c := range t.counts {
		want := total / k
		if w < total%k {
			want++
		}
		if c != want {
			return fmt.Errorf("walker %d drew %d samples, want %d", w, c, want)
		}
	}
	if t.skip > 0 {
		return fmt.Errorf("%d samples had no cached degree", t.skip)
	}
	return nil
}

// scratchDir makes a fresh directory under the run's scratch root.
func scratchDir(cfg config, name string) (string, error) {
	root := filepath.Join(cfg.dir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}

// avgDegree is the ground truth every estimate is scored against.
func avgDegree(g *rewire.Graph) float64 {
	return 2 * float64(g.NumEdges()) / float64(g.NumNodes())
}
