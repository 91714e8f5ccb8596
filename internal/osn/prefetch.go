package osn

import (
	"context"
	"sync"
	"sync/atomic"

	"rewire/internal/graph"
)

// PrefetchConfig tunes the client's asynchronous prefetch pool — the
// "walk, not wait" machinery (Nazi et al.): spend otherwise-idle round-trip
// time fetching the nodes the walk is likely to demand next.
type PrefetchConfig struct {
	// Workers is the number of concurrent speculative round-trips. More
	// workers overlap more provider latency; 0 selects DefaultPrefetchWorkers.
	Workers int
	// Queue is the pending-hint buffer size. Hints beyond it are dropped —
	// prefetching is speculative, so dropping is always safe. 0 selects
	// DefaultPrefetchQueue.
	Queue int
	// Depth is the recursive lookahead: after fetching a hinted node, its
	// still-unknown neighbors are re-enqueued with Depth-1. Depth 0 fetches
	// only the hinted ids; depth d expands a speculative frontier up to d
	// hops ahead of the walk, which is what actually beats the walk's serial
	// query chain — a node fetched two steps early has already paid its
	// round-trip by the time the walk arrives.
	Depth int
}

// Default pool sizing: enough workers to keep a depth-2 frontier ahead of a
// 16-walker fleet, and a queue that absorbs bursts without unbounded memory.
const (
	DefaultPrefetchWorkers = 16
	DefaultPrefetchQueue   = 1024
)

// PrefetchStats counts the pool's activity. Enqueued hints either turn into
// Fetched round-trips, get skipped as redundant (already cached or in
// flight), or are dropped on a full queue. Unused is the current number of
// speculative responses no demand query has consumed.
type PrefetchStats struct {
	Enqueued int64
	Dropped  int64
	Fetched  int64
	Skipped  int64
	Unused   int64
}

// prefetchJob is one speculative fetch request.
type prefetchJob struct {
	id    graph.NodeID
	depth int
}

// prefetchPool runs speculative fetches on a bounded set of workers. It
// never blocks an enqueuer: a full queue drops the hint.
type prefetchPool struct {
	c     *Client
	cfg   PrefetchConfig
	queue chan prefetchJob
	quit  chan struct{}
	// ctx bounds every speculative round-trip the pool performs: when the
	// parent context passed to StartPrefetchContext is cancelled (a deadline
	// expiring mid depth-expansion, a session shutting down), in-flight
	// speculative fetches abort instead of blocking out their RealLatency.
	// It carries an unowed seat: no batching dispatcher holds a place for a
	// worker.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	enqueued int64
	dropped  int64
	fetched  int64
	skipped  int64
}

// NewPrefetchingClient wraps a backend with an empty cache and a running
// prefetch pool.
func NewPrefetchingClient(be Backend, cfg PrefetchConfig) *Client {
	c := NewClient(be)
	c.StartPrefetch(cfg)
	return c
}

// StartPrefetch launches the prefetch pool. Starting an already-prefetching
// client replaces the pool (the old one is stopped first).
func (c *Client) StartPrefetch(cfg PrefetchConfig) {
	//rewirelint:allow ctxflow context-less convenience shim; ctx-aware callers use StartPrefetchContext
	c.StartPrefetchContext(context.Background(), cfg)
}

// StartPrefetchContext launches the prefetch pool with every speculative
// round-trip bound to ctx: when ctx is cancelled or its deadline expires,
// workers abort their in-flight fetches and stop expanding the frontier —
// no further speculative provider quota is spent. Aborted fetches commit
// nothing, so billing invariants are untouched. The pool still needs
// StopPrefetch (or a fresh StartPrefetch) to release its goroutines.
func (c *Client) StartPrefetchContext(ctx context.Context, cfg PrefetchConfig) {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultPrefetchWorkers
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultPrefetchQueue
	}
	c.StopPrefetch()
	pctx, cancel := context.WithCancel(ctx)
	p := &prefetchPool{
		c:      c,
		cfg:    cfg,
		queue:  make(chan prefetchJob, cfg.Queue),
		quit:   make(chan struct{}),
		ctx:    (&Seat{unowed: true}).Tag(pctx),
		cancel: cancel,
	}
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	c.poolMu.Lock()
	c.pool = p
	c.poolMu.Unlock()
}

// StopPrefetch shuts the pool down (idempotent; safe on clients that never
// prefetched). Pending hints are discarded; in-flight speculative round-trips
// finish and commit. After StopPrefetch, Prefetch is a no-op again, and the
// stopped pool's counters remain visible through PrefetchStats.
func (c *Client) StopPrefetch() {
	c.poolMu.Lock()
	p := c.pool
	c.pool = nil
	c.poolMu.Unlock()
	if p == nil {
		return
	}
	close(p.quit)
	p.wg.Wait()
	// Cancel only after the drain: StopPrefetch is graceful (in-flight
	// speculative round-trips finish and commit); the cancel here just
	// releases the derived context. Abortive shutdown comes from the parent
	// context passed to StartPrefetchContext.
	p.cancel()
	c.poolMu.Lock()
	c.retired.Enqueued += atomic.LoadInt64(&p.enqueued)
	c.retired.Dropped += atomic.LoadInt64(&p.dropped)
	c.retired.Fetched += atomic.LoadInt64(&p.fetched)
	c.retired.Skipped += atomic.LoadInt64(&p.skipped)
	c.poolMu.Unlock()
}

// Prefetch enqueues non-blocking speculative fetch hints for the given ids
// and returns how many were accepted. It does not retain ids. Redundant hints (already cached or in
// flight) and hints beyond the queue capacity are dropped — a prefetch is a
// bet, never an obligation. Without a running pool it accepts nothing.
func (c *Client) Prefetch(ids ...graph.NodeID) int {
	c.poolMu.RLock()
	p := c.pool
	c.poolMu.RUnlock()
	if p == nil {
		return 0
	}
	accepted := 0
	for _, v := range ids {
		if !c.Known(v) && p.enqueue(prefetchJob{id: v, depth: p.cfg.Depth}) {
			accepted++
		}
	}
	return accepted
}

// PrefetchStats returns the pool's counters, including totals carried over
// from pools that have since been stopped.
func (c *Client) PrefetchStats() PrefetchStats {
	c.poolMu.RLock()
	p := c.pool
	s := c.retired
	c.poolMu.RUnlock()
	s.Unused = c.SpeculativeCount()
	if p == nil {
		return s
	}
	s.Enqueued += atomic.LoadInt64(&p.enqueued)
	s.Dropped += atomic.LoadInt64(&p.dropped)
	s.Fetched += atomic.LoadInt64(&p.fetched)
	s.Skipped += atomic.LoadInt64(&p.skipped)
	return s
}

// enqueue offers a job to the queue without ever blocking the caller.
func (p *prefetchPool) enqueue(j prefetchJob) bool {
	select {
	case <-p.quit:
		return false
	default:
	}
	select {
	case p.queue <- j:
		atomic.AddInt64(&p.enqueued, 1)
		return true
	default:
		atomic.AddInt64(&p.dropped, 1)
		return false
	}
}

// worker drains the queue: fetch speculatively, then expand the frontier for
// jobs with remaining depth.
func (p *prefetchPool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case j := <-p.queue:
			p.run(j)
		}
	}
}

func (p *prefetchPool) run(j prefetchJob) {
	if p.ctx.Err() != nil {
		// Parent context cancelled or deadline expired: stop betting.
		atomic.AddInt64(&p.skipped, 1)
		return
	}
	nbrs, fetched, pending, done := p.c.fetchSpeculative(p.ctx, j.id)
	if !fetched {
		atomic.AddInt64(&p.skipped, 1)
		// The node is being (or was already) fetched by someone else —
		// typically the walker's own demand query winning the race against
		// its hint. The round-trip is covered either way; what is NOT
		// covered is the frontier behind it, so a depth-carrying job waits
		// for the result and keeps expanding. This is what lets speculation
		// get ahead of a serial walk instead of forever losing the same
		// race one hop at a time.
		if j.depth <= 0 {
			return
		}
		if pending != nil {
			select {
			case <-done:
			case <-p.quit:
				return
			case <-p.ctx.Done():
				return
			}
			if pending.err != nil {
				return
			}
			nbrs = pending.nbrs
		} else if nbrs == nil {
			var ok bool
			if nbrs, ok = p.c.cachedNeighbors(j.id); !ok {
				return
			}
		}
	} else {
		atomic.AddInt64(&p.fetched, 1)
	}
	if j.depth <= 0 {
		return
	}
	for _, w := range nbrs {
		if p.c.Known(w) {
			continue
		}
		p.enqueue(prefetchJob{id: w, depth: j.depth - 1})
	}
}

// cachedNeighbors returns v's cached list regardless of whether it is
// speculative or demanded — pool-internal only: the pool may expand any
// known neighborhood without upgrading the entry's billing state.
func (c *Client) cachedNeighbors(v graph.NodeID) ([]graph.NodeID, bool) {
	if e := c.state.Load(v); e != nil && e.state.Load() != inFlight {
		return e.nbrs, true
	}
	return nil, false
}
