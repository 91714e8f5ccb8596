package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"rewire"
	"rewire/internal/estimate"
)

// durableCrawl is a write-heavy use of the provider cache: a k-walker SRW
// crawl of a large graph into a fresh durable cache with default options, so
// every miss commits, appends to the write-ahead log, and the log rotates
// and compacts while the crawl runs. Each op draws one chunk of a cycle;
// each cycle crawls a fresh cache directory. After the measured window the
// first cycle's directory is reopened by a new Provider attached to the same
// opened backend — reopening through a cache: URL would regenerate the graph,
// and only the replay is to be timed — and a re-walk with the same seed must
// bill nothing and retrace every walker. SRW, because a warm MTO walk
// legitimately diverges: Theorem 5 reads the cache.
type durableCrawl struct {
	cfg     config
	tr      *tracer
	nodes   int
	edges   int
	walkers int
	chunk   int // samples per op
	chunks  int // ops per cycle
	cycles  int // checked set, in cycles

	g       *rewire.Graph // the crawled graph, built after the measured window
	stack   rewire.Backend
	queries atomic.Int64

	// The cycle in progress (ops run on one client, in order).
	prov  *rewire.Provider
	sess  *rewire.Session
	traj  *trajectory
	dir   string
	drawn int

	// The first cycle, kept on disk for the reopen check.
	first     string
	firstBill int64
	firstHash []uint64
	firstSeed uint64
}

// durableGraphSeed fixes the crawled graph like the preset datasets are
// fixed: the run's seed varies the walks, not the topology.
const durableGraphSeed = 20130408

func newDurableCrawl(cfg config, tr *tracer) *durableCrawl {
	w := &durableCrawl{cfg: cfg, tr: tr, nodes: 200_000, edges: 4_000_000, walkers: 2, chunk: 20_000, chunks: 30, cycles: 6}
	if cfg.tiny {
		w.nodes, w.edges, w.chunk, w.chunks, w.cycles = 5_000, 40_000, 2_000, 3, 1
	}
	return w
}

func (w *durableCrawl) sizes() map[string]any {
	return map[string]any{"graph": "sim:social", "nodes": w.nodes, "edges": w.edges, "walkers_k": w.walkers,
		"samples_per_op": w.chunk, "ops_per_cycle": w.chunks, "checked_cycles": w.cycles, "cycle_samples_s": w.chunk * w.chunks}
}

func (w *durableCrawl) setup(ctx context.Context) error {
	url := fmt.Sprintf("sim:social?nodes=%d&edges=%d&seed=%d", w.nodes, w.edges, durableGraphSeed)
	be, err := rewire.OpenBackend(ctx, url)
	if err != nil {
		return err
	}
	w.stack = demandTap(wireTap(be, w.tr), w.tr)
	return nil
}

func (w *durableCrawl) reset(context.Context) error { return w.endCycle(false) }
func (w *durableCrawl) clients() int                { return 1 }
func (w *durableCrawl) checked() int                { return w.chunks * w.cycles }
func (w *durableCrawl) counts() counts              { return stackCounts(w.stack, w.queries.Load()) }

// graph regenerates the crawled topology (the sim: driver keeps its own copy
// private). Only scoring the estimates and the replay phase need it, so it
// is built once the measured window and its peak RSS are over.
func (w *durableCrawl) graph() *rewire.Graph {
	if w.g == nil {
		g, err := rewire.SocialGraph(w.nodes, w.edges, durableGraphSeed)
		if err != nil {
			panic(err) // the same parameters built the backend at set-up
		}
		w.g = g
	}
	return w.g
}

func (w *durableCrawl) close() error {
	err := w.endCycle(false)
	if w.first != "" {
		os.RemoveAll(w.first)
	}
	return err
}

// attach opens dir as p's durable cache inside a durable.attach span.
func (w *durableCrawl) attach(ctx context.Context, p *rewire.Provider, dir string) (time.Duration, error) {
	on := w.tr.enabled()
	var start int64
	if on {
		start = w.tr.now()
	}
	t0 := time.Now()
	err := p.AttachDurableCache(dir)
	d := time.Since(t0)
	if on {
		st, _ := p.DurableCacheStats()
		w.tr.add(span{name: "durable.attach", parent: spanFrom(ctx), start: start, end: w.tr.now(),
			key1: "entries", val1: int64(st.Entries), key2: "replayed", val2: int64(st.Replayed)})
	}
	return d, err
}

func (w *durableCrawl) session(p *rewire.Provider, seed uint64) (*rewire.Session, error) {
	return rewire.NewSession(p, rewire.WithAlgorithm(rewire.AlgSRW), rewire.WithFleet(w.walkers),
		rewire.WithPartitionedBudget(true), rewire.WithSeed(seed))
}

func (w *durableCrawl) op(ctx context.Context, p *pass, i int) (opResult, error) {
	cycle, j := i/w.chunks, i%w.chunks
	seed := opSeed(w.cfg.seed, cycle)
	if j == 0 {
		if err := w.endCycle(false); err != nil {
			return opResult{}, err
		}
		dir, err := scratchDir(w.cfg, "durable")
		if err != nil {
			return opResult{}, err
		}
		w.dir, w.drawn = dir, 0
		w.prov = rewire.BackendSource(w.stack)
		if _, err := w.attach(ctx, w.prov, dir); err != nil {
			return opResult{}, err
		}
		if w.sess, err = w.session(w.prov, seed); err != nil {
			return opResult{}, err
		}
		w.traj = newTrajectory(w.walkers)
	}
	if w.prov == nil {
		return opResult{}, fmt.Errorf("chunk %d of a cycle that failed to start", j)
	}
	before := w.prov.UniqueQueries()
	w.traj.est = estimate.ImportanceSampler{} // each chunk's samples give an estimate of their own
	t0 := time.Now()
	n, err := stream(ctx, w.sess, w.chunk, w.tr, w.prov, w.traj)
	res := opResult{samples: n, srwSteps: n, srwTime: time.Since(t0), estimates: []float64{w.traj.est.Estimate()}}
	w.drawn += n
	w.queries.Add(w.prov.UniqueQueries() - before)
	res.exact = append([]uint64{uint64(w.prov.UniqueQueries())}, w.traj.hashes...)
	if err != nil {
		return res, err
	}
	if err := checkCounts(w.traj, w.drawn); err != nil {
		return res, err
	}
	if j == w.chunks-1 {
		if cycle == 0 {
			st, _ := w.prov.DurableCacheStats()
			p.add("durable.appends", float64(st.Appends))
			p.add("durable.segments", float64(st.Segments))
			p.add("durable.compactions", float64(st.Compactions))
			w.firstBill, w.firstHash, w.firstSeed = w.prov.UniqueQueries(), slices.Clone(w.traj.hashes), seed
		}
		p.add("osn.cache_entries", float64(w.prov.CacheSize()))
		p.add("cycles", 1)
		if err := w.endCycle(cycle == 0); err != nil {
			return res, err
		}
	}
	return res, nil
}

// endCycle closes the cycle in progress — sealing its log — and deletes its
// directory unless it is the first cycle, kept for the reopen check.
func (w *durableCrawl) endCycle(keep bool) error {
	if w.prov == nil {
		return nil
	}
	err := closeDurable(w.prov)
	if keep {
		if w.first != "" {
			os.RemoveAll(w.first)
		}
		w.first = w.dir
	} else {
		os.RemoveAll(w.dir)
	}
	w.prov, w.sess, w.traj, w.dir = nil, nil, nil, ""
	return err
}

// closeDurable closes a provider with a durable cache. When Close races a
// background compaction, the compaction loses and Close reports it, though
// nothing is lost: the folded segments are still on disk and the next open
// prunes the half-written generation (verify's reopen checks exactly that).
// The benchmark tolerates that one error and fails on any other.
func closeDurable(p *rewire.Provider) error {
	err := p.Close()
	if err != nil && strings.Contains(err.Error(), "closed during compaction") {
		return nil
	}
	return err
}

// verify reopens the first cycle's cache three times — the replay a
// restarted crawler pays — and re-walks it warm on the last reopen.
func (w *durableCrawl) verify(ctx context.Context, p *pass) error {
	if err := w.endCycle(false); err != nil {
		return err
	}
	if w.first == "" {
		return fmt.Errorf("the first cycle did not complete")
	}
	defer func() {
		os.RemoveAll(w.first)
		w.first = ""
	}()
	const reopens = 3
	for r := 0; r < reopens; r++ {
		prov := rewire.BackendSource(w.stack)
		d, err := w.attach(ctx, prov, w.first)
		if err != nil {
			return fmt.Errorf("reopening the first cycle: %w", err)
		}
		p.add("durable.reopen_ms", d.Seconds()*1e3/reopens)
		if got := prov.UniqueQueries(); got != w.firstBill {
			prov.Close()
			return fmt.Errorf("reopen recovered a ledger of %d, the crawl billed %d", got, w.firstBill)
		}
		if r < reopens-1 {
			if err := closeDurable(prov); err != nil {
				return err
			}
			continue
		}
		st, _ := prov.DurableCacheStats()
		p.add("durable.replayed", float64(st.Replayed))
		err = w.rewalk(ctx, p, prov)
		if cerr := closeDurable(prov); err == nil {
			err = cerr
		}
		return err
	}
	return nil
}

func (w *durableCrawl) rewalk(ctx context.Context, p *pass, prov *rewire.Provider) error {
	sess, err := w.session(prov, w.firstSeed)
	if err != nil {
		return err
	}
	t := newTrajectory(w.walkers)
	t0 := time.Now()
	for c := 0; c < w.chunks; c++ {
		if _, err := stream(ctx, sess, w.chunk, nil, prov, t); err != nil {
			return err
		}
	}
	p.add("durable.warm_samples_per_s", float64(w.chunk*w.chunks)/time.Since(t0).Seconds())
	if got := prov.UniqueQueries(); got != w.firstBill {
		return fmt.Errorf("warm re-walk billed %d new queries, want 0", got-w.firstBill)
	}
	if !slices.Equal(t.hashes, w.firstHash) {
		return fmt.Errorf("warm re-walk trajectories %v differ from the cold crawl's %v", t.hashes, w.firstHash)
	}
	return nil
}

func (w *durableCrawl) layers(p *pass, m map[string]float64) {
	for _, name := range []string{"durable.appends", "durable.segments", "durable.compactions", "durable.replayed",
		"durable.reopen_ms", "durable.warm_samples_per_s"} {
		m[name] = p.get(name)
	}
	m["estimate.relerr_srw"] = meanRelErr(p.estimates, avgDegree(w.graph()))
	m["osn.cache_entries"] = ratio(p.get("osn.cache_entries"), p.get("cycles"))
}
