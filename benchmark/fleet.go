package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"rewire"
	"rewire/internal/httpsrc"
)

// liveFleet is the paper's live setting (Fig 11): each op is a fresh crawl
// of S samples by a k-walker partitioned fleet reading through the http://
// driver from a provider server with a per-request latency. Time is bound by
// latency, so the batch dispatcher, the wire round-trip, the miss and
// singleflight path and the prefetch pool do the work. The fleet runs SRW:
// MTO fleet members share one overlay whose rewiring depends on goroutine
// interleaving, so only SRW's bills and trajectories repeat exactly.
type liveFleet struct {
	cfg     config
	tr      *tracer
	full    bool
	walkers int
	total   int // samples per op
	crawls  int // checked set
	latency time.Duration

	g       *rewire.Graph
	ln      net.Listener
	srv     *http.Server
	served  chan error
	stack   rewire.Backend
	ref     rewire.Backend
	queries atomic.Int64
	batches rewire.BatchStats // dispatcher counters at the end of the last pass
}

func newLiveFleet(cfg config, tr *tracer) *liveFleet {
	w := &liveFleet{cfg: cfg, tr: tr, full: true, walkers: 16, total: 512, crawls: 96, latency: time.Millisecond}
	if cfg.tiny {
		w.full, w.total, w.crawls = false, 128, 4
	}
	return w
}

func (w *liveFleet) sizes() map[string]any {
	return map[string]any{"graph": "Google Plus", "full": w.full, "walkers_k": w.walkers, "samples_s": w.total, "checked_crawls": w.crawls,
		"latency_ms": w.latency.Seconds() * 1e3, "batch": "64/2ms/inflight 2", "prefetch": "frontier/2 workers/depth 1"}
}

// Load shape: at most two provider round-trips in flight (the dispatcher's
// MaxInflight; the prefetch pool's speculative fetches ride the same
// dispatcher), sized for a two-core machine.
var (
	liveBatching = rewire.BatchingOptions{MaxBatch: 64, MaxWait: 2 * time.Millisecond, MaxInflight: 2}
	livePrefetch = rewire.PrefetchOptions{Strategy: rewire.PrefetchFrontier, Workers: 2, Depth: 1}
)

func (w *liveFleet) setup(ctx context.Context) error {
	var err error
	if w.g, err = rewire.PresetGraph("Google Plus", w.full); err != nil {
		return err
	}
	if w.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	w.srv = &http.Server{
		Handler:           handlerTap(httpsrc.Handler(w.g, httpsrc.ServerOptions{Latency: w.latency}), w.tr),
		ReadHeaderTimeout: 10 * time.Second,
	}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(w.ln) }()
	be, err := rewire.OpenBackend(ctx, "http://"+w.ln.Addr().String()+"/")
	if err != nil {
		return err
	}
	w.stack = demandTap(rewire.WithBatching(wireTap(be, w.tr), liveBatching), w.tr)
	// The reference: the same graph behind a local driver, no latency, no
	// batching, no prefetch. A fleet over it must walk the same trajectories
	// and bill the same queries.
	w.ref, err = rewire.OpenBackend(ctx, fmt.Sprintf("mem:preset?name=Google+Plus&full=%t", w.full))
	return err
}

func (w *liveFleet) reset(context.Context) error { return nil }
func (w *liveFleet) clients() int                { return 1 }
func (w *liveFleet) checked() int                { return w.crawls }
func (w *liveFleet) graph() *rewire.Graph        { return w.g }

func (w *liveFleet) close() error {
	var err error
	if w.stack != nil {
		err = rewire.BackendSource(w.stack).Close()
	}
	if w.srv != nil {
		w.srv.Close()
		if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	return err
}

func (w *liveFleet) counts() counts { return stackCounts(w.stack, w.queries.Load()) }

func (w *liveFleet) crawl(ctx context.Context, be rewire.Backend, seed uint64, prefetch bool) (*rewire.Provider, *trajectory, error) {
	prov := rewire.BackendSource(be)
	opts := []rewire.Option{rewire.WithAlgorithm(rewire.AlgSRW), rewire.WithFleet(w.walkers),
		rewire.WithPartitionedBudget(true), rewire.WithSeed(seed)}
	if prefetch {
		opts = append(opts, rewire.WithPrefetch(livePrefetch))
	}
	sess, err := rewire.NewSession(prov, opts...)
	if err != nil {
		return nil, nil, err
	}
	t := newTrajectory(w.walkers)
	tr := w.tr
	if !prefetch {
		tr = nil // the reference crawl is not part of the measured stack
	}
	if _, err := stream(ctx, sess, w.total, tr, prov, t); err != nil {
		return nil, nil, err
	}
	return prov, t, checkCounts(t, w.total)
}

func (w *liveFleet) op(ctx context.Context, p *pass, i int) (opResult, error) {
	t0 := time.Now()
	prov, t, err := w.crawl(ctx, w.stack, opSeed(w.cfg.seed, i), true)
	if err != nil {
		return opResult{}, err
	}
	res := opResult{samples: w.total, srwSteps: w.total, srwTime: time.Since(t0), estimates: []float64{t.est.Estimate()}}
	w.queries.Add(prov.UniqueQueries())
	res.exact = append([]uint64{uint64(prov.UniqueQueries())}, t.hashes...)
	st := prov.PrefetchStats()
	p.add("osn.prefetch_fetched", float64(st.Fetched))
	p.add("osn.prefetch_unused", float64(st.Unused))
	p.add("osn.prefetch_dropped", float64(st.Dropped))
	p.add("osn.cache_entries", float64(prov.CacheSize()))
	p.add("ops", 1)
	return res, nil
}

// verify re-walks the checked ops over the reference backend: the latency,
// batching and prefetch stack must change neither trajectories nor bills.
func (w *liveFleet) verify(ctx context.Context, p *pass) error {
	w.noteBatches(p)
	for i := 0; i < w.checked(); i++ {
		prov, t, err := w.crawl(ctx, w.ref, opSeed(w.cfg.seed, i), false)
		if err != nil {
			return fmt.Errorf("reference crawl %d: %w", i, err)
		}
		want := append([]uint64{uint64(prov.UniqueQueries())}, t.hashes...)
		p.mu.Lock()
		got := p.exact[i]
		p.mu.Unlock()
		if !slices.Equal(got, want) {
			return fmt.Errorf("op %d: live crawl (bill, walker hashes) %v differs from the reference %v", i, got, want)
		}
	}
	return nil
}

func (w *liveFleet) layers(p *pass, m map[string]float64) {
	ops := p.get("ops")
	m["osn.prefetch_fetched"] = ratio(p.get("osn.prefetch_fetched"), ops)
	m["osn.prefetch_unused_frac"] = ratio(p.get("osn.prefetch_unused"), p.get("osn.prefetch_fetched"))
	m["osn.prefetch_dropped"] = ratio(p.get("osn.prefetch_dropped"), ops)
	m["osn.cache_entries"] = ratio(p.get("osn.cache_entries"), ops)
	m["estimate.relerr_srw"] = meanRelErr(p.estimates, avgDegree(w.g))
	batches := p.get("batch.batches")
	m["batch.ids_per_batch"] = ratio(p.get("batch.ids"), batches)
	m["batch.flush_idle_frac"] = ratio(p.get("batch.idle"), batches)
	m["batch.flush_timer_frac"] = ratio(p.get("batch.timer"), batches)
}

// noteBatches records the dispatcher's activity since the previous pass.
func (w *liveFleet) noteBatches(p *pass) {
	bs, ok := rewire.BackendAs[rewire.BatchStatser](w.stack)
	if !ok {
		return
	}
	now := bs.BatchStats()
	p.add("batch.batches", float64(now.Batches-w.batches.Batches))
	p.add("batch.ids", float64(now.IDs-w.batches.IDs))
	p.add("batch.idle", float64(now.FlushIdle-w.batches.FlushIdle))
	p.add("batch.timer", float64(now.FlushTimer-w.batches.FlushTimer))
	w.batches = now
}
