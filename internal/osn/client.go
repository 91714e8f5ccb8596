package osn

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rewire/internal/graph"
	"rewire/internal/store"
)

// Entry states. An entry is born inFlight by whoever claims the fetch (or
// cached, when seeded), leaves inFlight once, at commit, and is upgraded at
// most once more, from speculative to demanded, by its first demand.
const (
	inFlight uint32 = iota
	speculative
	demanded
)

// entry is everything the client knows about one user, in one 64-byte
// object carved from the client's entry arena, published in the Table when
// the fetch is claimed and kept for good once it commits. Every transition runs under the user's stripe lock, so "check the
// cache, join an in-flight fetch, or claim the fetch" is one atomic step per
// user (per-stripe singleflight). Readers of a cached list take no lock: they
// load state and, when it says cached, read nbrs, which commit wrote before
// storing the state.
//
// Speculative entries were fetched by the prefetch pool and not yet consumed
// by any demand query: they are invisible to the cost ledger AND to the
// free-knowledge accessors (Cached, CachedDegree, CachedNeighbors) until a
// demand query upgrades them, so enabling prefetch changes neither walk
// trajectories nor Theorem 5 verdicts nor UniqueQueries — it is purely a
// latency optimization.
type entry struct {
	// nbrs is the user's list, written once before state leaves inFlight.
	nbrs  []graph.NodeID
	state atomic.Uint32
	// demand counts the demand-path callers (NeighborsContext,
	// QueryBatchContext, waiters that coalesced onto this fetch) currently
	// needing the result. Guarded by the stripe lock. A waiter whose context
	// is cancelled before the fetch commits withdraws its demand; a fetch
	// whose demand count is zero at commit time stays speculative and does
	// not touch the unique-query ledger.
	demand int32
	// done is made by the fetch's first waiter and closed when the fetch
	// settles; a fetch nobody waits on never makes one. Guarded by the
	// stripe lock: waiters take their copy under it, and commit clears it,
	// so a cached entry keeps no channel.
	done chan struct{}
	// err is the fetch's failure, written before done is closed. Publishing
	// nbrs and err before the close gives waiters a happens-before edge.
	err error
	// tenant is the account the fetch's reservation — and, at commit, its
	// unique-query bill — belongs to: the FIRST demander's tenant (the one
	// whose arrival turned a free fetch into a billable one); nil until a
	// demand arrives. Later coalescers ride along unbilled, exactly as cache
	// hits do. Guarded by the stripe lock, like demand; rewritten if demand
	// returns to zero and a new first demander claims the fetch. Its fields
	// are guarded by the ledger mutex.
	tenant *tenantLedger
}

// ledger is the client's global billing state. It is deliberately tiny — a
// handful of int64 counters behind one mutex touched only on the cold paths
// (misses, commits, speculative upgrades) — so that the hot path, a cache
// hit, takes no lock at all. Lock order: a user's stripe lock first, then
// the ledger; never the reverse.
type ledger struct {
	mu     sync.Mutex
	unique int64
	// budget caps unique (demand) queries when positive; the demand path
	// returns ErrBudgetExhausted rather than billing past it.
	budget int64
	// reserved counts in-flight fetches that carry demand (each will bill
	// exactly one unique query when it commits successfully). Budget checks
	// test unique+reserved so that concurrent misses cannot collectively
	// overshoot the cap between pre-check and commit.
	reserved int64
	// speculative counts cache entries fetched ahead of demand and not yet
	// consumed — the pool's outstanding bet.
	speculative int64
	// size counts cached users (demanded and speculative). Tracked here so
	// CacheSize is O(1) and the billing invariant unique + speculative ==
	// size is checkable at a glance.
	size int64
	// tenants splits unique and reserved by tenant attribution (see
	// WithTenant); "" is the anonymous tenant. The split is exact, never a
	// sample: every unique++ above is mirrored on exactly one tenant, so
	// Σ tenants[*].unique == unique at every instant the mutex is free.
	tenants map[string]*tenantLedger
}

// tenantLedger is one tenant's slice of the ledger: its billed and reserved
// demand queries, and its optional private budget. Slices are never removed,
// so a pointer to one stays valid for the client's lifetime.
type tenantLedger struct {
	name     string
	unique   int64
	reserved int64
	// budget caps this tenant's unique demand queries when positive,
	// independently of (and in addition to) the client-wide budget.
	budget int64
}

// tenantLocked returns (allocating on first touch) the named tenant's
// ledger slice. Callers hold led.mu.
func (l *ledger) tenantLocked(name string) *tenantLedger {
	if l.tenants == nil {
		l.tenants = make(map[string]*tenantLedger)
	}
	t := l.tenants[name]
	if t == nil {
		t = &tenantLedger{name: name}
		l.tenants[name] = t
	}
	return t
}

// overTenantBudgetLocked is overBudgetLocked for one tenant's private cap.
// Callers hold led.mu.
func (l *ledger) overTenantBudgetLocked(t *tenantLedger) bool {
	return t.budget > 0 && t.unique+t.reserved >= t.budget
}

// overBudgetLocked reports whether committing to one more unique query —
// on top of those already billed AND those reserved by in-flight demanded
// fetches — would exceed the configured budget. Callers hold led.mu.
func (l *ledger) overBudgetLocked() bool {
	return l.budget > 0 && l.unique+l.reserved >= l.budget
}

// reserve admits one demanded fetch billed to tenant: it returns nil when
// the client-wide or the tenant's budget is spent, and otherwise reserves one
// unique query on both ledgers, which commit turns into a bill or a
// withdrawal releases, and returns the tenant's slice. Callers hold the
// user's stripe lock.
func (l *ledger) reserve(tenant string) *tenantLedger {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tenantLocked(tenant)
	if l.overBudgetLocked() || l.overTenantBudgetLocked(t) {
		return nil
	}
	l.reserved++
	t.reserved++
	return t
}

// Client is the third-party sampler's view of a network backend. It
// implements the paper's query-cost accounting (§II-B): "we consider the
// number of unique queries one has to issue for the sampling process, as any
// duplicate query can be answered from local cache without consuming the
// query limit". Every neighbor list is cached forever (the paper's Redis/Mongo
// local store), and cached degree knowledge powers the Theorem 5 extended
// removal criterion.
//
// The client is generic over the Backend contract: the simulated Service is
// merely the built-in backend, and a live HTTP provider or a read-only CSR
// snapshot gets the exact same cache, singleflight, billing, budget, and
// prefetch machinery.
//
// Client is safe for concurrent use. Per-user state lives in a lock-free
// radix table (internal/store), so a demanded cache hit is a single atomic
// load and never contends with anything; a cache miss is coalesced per user
// under a lock stripe chosen by id (per-stripe singleflight). The stripe is
// NOT held across the service round-trip (misses for different users overlap
// their latency, the fleet's whole wall-clock win), yet concurrent misses for
// the same user still charge exactly one unique query. Global billing
// counters live in a separate one-mutex ledger touched only on cold paths.
//
// A Client can additionally run an asynchronous prefetch pool (see
// NewPrefetchingClient / StartPrefetch): Prefetch(ids...) enqueues
// speculative fetches that overlap their round-trips with the walk, and a
// demand query that lands on an in-flight or completed speculative fetch
// consumes it at exactly one unique query — never zero, never two.
type Client struct {
	be    Backend
	state store.Table[entry]
	// entries carves entries from slabs: entries live as long as the cache,
	// and a slab is one object for the GC to mark instead of one per user.
	entries *store.Arena[entry]
	// locks serializes each user's transitions; see entry.
	locks store.Stripes
	led   ledger

	// lowDeg counts demand-visible cached lists of length 2 or 3, the only
	// degrees Theorem 5 can use (see LowDegreeCount). Every write site adds
	// after storing the entry's demanded state and under its stripe lock, so
	// a reader that loads c finds at least those c entries.
	lowDeg atomic.Int64

	// pool is the optional prefetch worker pool; nil means Prefetch is a
	// no-op. Guarded by poolMu (not the stripe locks: enqueueing must not
	// contend with the cache). retired accumulates counters of stopped pools.
	poolMu  sync.RWMutex
	pool    *prefetchPool
	retired PrefetchStats

	// journal, when non-nil, persists billing-relevant transitions before
	// they become observable (see Journal). Installed at construction time
	// via SetJournal; never mutated while queries run.
	journal Journal
}

// NewClient wraps a backend with an empty cache (adaptive default stripe
// count) and no prefetch pool.
func NewClient(be Backend) *Client {
	return NewClientShards(be, 0)
}

// NewClientShards wraps a backend with an empty cache whose transitions run
// under n lock stripes (rounded up to a power of two; n <= 0 selects the
// adaptive store.DefaultShards(), n == 1 serializes every miss, commit and
// upgrade on one lock — the layout the contention benchmarks compare
// against). Cache hits take no lock at any n.
func NewClientShards(be Backend, n int) *Client {
	return &Client{be: be, entries: store.NewArena[entry](entrySlab), locks: store.NewStripes(n)}
}

// entrySlab is the entry arena's slab length: 8 KiB of entries, so a small
// cache pins little and a large one is one GC object per 128 users.
const entrySlab = 128

// newEntry returns a zeroed entry carved from the client's arena.
func (c *Client) newEntry() *entry { return &c.entries.Alloc(1)[:1][0] }

// fetchOne performs the backend round-trip for a single user. The demand and
// speculative paths both funnel through it, so the Backend contract — one
// list per id or an error — is enforced in exactly one place.
func (c *Client) fetchOne(ctx context.Context, v graph.NodeID) ([]graph.NodeID, error) {
	lists, err := c.be.Fetch(ctx, []graph.NodeID{v})
	if err != nil {
		return nil, err
	}
	if len(lists) != 1 {
		return nil, fmt.Errorf("osn: backend returned %d lists for 1 id", len(lists))
	}
	return lists[0], nil
}

// StoreShards returns the local store's lock-stripe count.
func (c *Client) StoreShards() int { return c.locks.Len() }

// SetBudget caps the number of unique (demand) queries at n; once the ledger
// reaches n, the demand path returns ErrBudgetExhausted instead of billing
// past the cap. n <= 0 removes the cap. The budget is a demand-side guard —
// the speculative pool has its own (PrefetchConfig.Budget) — and it is safe
// to raise mid-run to resume an exhausted walk.
func (c *Client) SetBudget(n int64) {
	c.led.mu.Lock()
	c.led.budget = n
	c.led.mu.Unlock()
	if c.journal != nil {
		// Best-effort: a failed append fail-stops the journal itself, and the
		// budget still applies for this process's lifetime.
		_ = c.journal.RecordBudget(n)
	}
}

// NeighborsContext returns v's neighbor list (shared slice, do not modify),
// from cache when possible. Only cache misses reach the backend, and only
// demanded lists count toward UniqueQueries: a list the prefetch pool
// fetched speculatively is billed here, on first demand, exactly once. A
// miss's round-trip honors ctx, and a caller coalescing onto someone else's
// in-flight fetch stops waiting when ctx is cancelled. Errors —
// cancellation, budget exhaustion, unknown IDs — are returned, which is what
// lets a cancelled walk distinguish "isolated node" from "aborted query".
//
// Billing stays exact under cancellation. A waiter that gives up before the
// shared fetch commits withdraws its demand, so a fetch nobody ended up
// needing commits speculative (billed only when a later demand consumes it),
// and a fetch that fails (including by cancellation of the goroutine driving
// the round-trip) bills nothing and caches nothing — the next demand retries
// it. Coalesced waiters share the driving fetch's fate, errors included,
// exactly like singleflight; a waiter that sees a context error not its own
// may simply retry.
func (c *Client) NeighborsContext(ctx context.Context, v graph.NodeID) ([]graph.NodeID, error) {
	// Hot path: a demanded cache hit is one lock-free table load.
	if nbrs, ok := c.CachedNeighbors(v); ok {
		return nbrs, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Tenant attribution is read from ctx BEFORE any lock: claim runs under
	// the stripe lock and the ledger mutex.
	e, done, owner, err := c.claim(v, TenantFrom(ctx))
	switch {
	case err != nil:
		return nil, err
	case owner:
		nbrs, err := c.fetchOne(ctx, v)
		c.commit(v, e, nbrs, err)
		return e.nbrs, e.err
	case done == nil:
		return e.nbrs, nil
	}
	select {
	case <-done:
		return e.nbrs, e.err
	case <-ctx.Done():
		if !c.withdraw(v, e) {
			// Commit won: the list (if any) is cached and billed on this
			// walker's behalf — return it rather than the late cancellation.
			<-done
			if e.err == nil {
				return e.nbrs, nil
			}
		}
		return nil, ctx.Err()
	}
}

// claim settles a demand miss for v under its stripe lock, billing tenant tn:
// it claims a fresh fetch (owner: the caller must drive it), joins one in
// flight (returning the channel its commit closes), or finds the list cached
// (done == nil), upgrading a speculative entry to demanded. Budget is consulted
// (and a reservation taken, on the global ledger and on tn's) only when the
// call makes a fetch billable: a fresh claim, or the first demand on an
// in-flight fetch. Coalescing onto an already-demanded fetch costs nothing —
// for anyone.
func (c *Client) claim(v graph.NodeID, tn string) (e *entry, done chan struct{}, owner bool, err error) {
	mu := c.locks.Of(v)
	mu.Lock()
	defer mu.Unlock()
	e = c.state.Load(v)
	if e == nil {
		tl := c.led.reserve(tn)
		if tl == nil {
			return nil, nil, false, ErrBudgetExhausted
		}
		e = c.newEntry()
		e.demand, e.tenant = 1, tl
		c.state.Store(v, e)
		return e, nil, true, nil
	}
	switch e.state.Load() {
	case inFlight:
		// Someone else — a sibling walker or the prefetch pool — is already
		// fetching v: register demand so commit bills it, and wait.
		if e.demand == 0 {
			tl := c.led.reserve(tn)
			if tl == nil {
				return nil, nil, false, ErrBudgetExhausted
			}
			e.tenant = tl
		}
		e.demand++
		return e, e.waitLocked(), false, nil
	case speculative:
		// First demand touch of a prefetched list: bill it now, to the
		// tenant whose demand consumed the speculation.
		c.led.mu.Lock()
		tl := c.led.tenantLocked(tn)
		if c.led.overBudgetLocked() || c.led.overTenantBudgetLocked(tl) {
			c.led.mu.Unlock()
			return nil, nil, false, ErrBudgetExhausted
		}
		if c.journal != nil {
			// Persist the promotion before billing it (same barrier as
			// commit): an append failure fails the query and leaves the
			// entry speculative for a later retry.
			if jerr := c.journal.RecordUpgrade(v, tn); jerr != nil {
				c.led.mu.Unlock()
				return nil, nil, false, fmt.Errorf("osn: journaling speculative upgrade: %w", jerr)
			}
		}
		c.led.unique++
		tl.unique++
		c.led.speculative--
		c.led.mu.Unlock()
		e.state.Store(demanded)
		c.noteVisible(e.nbrs)
	}
	return e, nil, false, nil
}

// waitLocked returns the channel e's commit closes, making it on first use.
// Callers hold e's stripe lock and e is in flight.
func (e *entry) waitLocked() chan struct{} {
	if e.done == nil {
		e.done = make(chan struct{})
	}
	return e.done
}

// withdraw drops a cancelled waiter's demand on e and reports whether it
// did; false means the fetch already settled. Commit stores a cached state
// or removes the entry under the stripe lock, so checking both decides the
// race consistently.
func (c *Client) withdraw(v graph.NodeID, e *entry) bool {
	mu := c.locks.Of(v)
	mu.Lock()
	defer mu.Unlock()
	if c.state.Load(v) != e || e.state.Load() != inFlight {
		return false
	}
	e.demand--
	if e.demand == 0 {
		// Last demander gone: release the reservation — from the fetch's
		// billing tenant, who may differ from this waiter (the first
		// demander could have withdrawn earlier while others kept the fetch
		// demanded).
		c.led.mu.Lock()
		c.led.reserved--
		e.tenant.reserved--
		c.led.mu.Unlock()
	}
	return true
}

// commit publishes e's finished fetch of nbrs (or its failure err): the list
// enters the cache (speculative when no demand caller still wants the
// fetch), the ledger is billed for demanded fetches, and waiters are
// released. Failed fetches cache nothing and bill nothing — the next demand
// retries.
func (c *Client) commit(v graph.NodeID, e *entry, nbrs []graph.NodeID, err error) {
	mu := c.locks.Of(v)
	mu.Lock()
	if err == nil {
		// Durability barrier: persist the fetch before any waiter can
		// observe it or the ledger bills it. On append failure the fetch
		// fails — nothing cached, nothing billed — and the next demand
		// retries.
		err = c.journalFetch(v, nbrs, e)
	}
	e.err = err
	c.led.mu.Lock()
	if e.demand > 0 {
		// The reservation resolves here — into a bill or a retry — on the
		// global ledger and on the billing tenant's slice alike.
		c.led.reserved--
		e.tenant.reserved--
	}
	if err == nil {
		if e.demand > 0 {
			c.led.unique++
			e.tenant.unique++
		} else {
			c.led.speculative++
		}
		c.led.size++
	}
	c.led.mu.Unlock()
	switch {
	case err != nil:
		c.state.Delete(v)
	case e.demand > 0:
		e.nbrs = nbrs
		e.state.Store(demanded)
		c.noteVisible(nbrs)
	default:
		e.nbrs = nbrs
		e.state.Store(speculative)
	}
	done := e.done
	e.done = nil
	mu.Unlock()
	if done != nil {
		close(done)
	}
}

// fetchSpeculative is the prefetch worker's fetch path: skip anything cached
// or already in flight, otherwise perform the round-trip (bound to the
// pool's context) without registering demand. It reports whether this call
// performed a service round-trip; when someone else's fetch is in flight it
// returns that fetch and the channel its commit closes instead, so a
// depth-carrying job can await the result and still expand the frontier
// behind it — the common case for next-hop hints, which lose the race
// against the walker's own demand query almost every time.
func (c *Client) fetchSpeculative(ctx context.Context, v graph.NodeID) (nbrs []graph.NodeID, fetched bool, pending *entry, done chan struct{}) {
	mu := c.locks.Of(v)
	mu.Lock()
	e := c.state.Load(v)
	owner := e == nil
	switch {
	case owner:
		e = c.newEntry()
		c.state.Store(v, e)
	case e.state.Load() == inFlight:
		done = e.waitLocked()
	}
	mu.Unlock()
	switch {
	case owner:
		nbrs, err := c.fetchOne(ctx, v)
		c.commit(v, e, nbrs, err)
		return e.nbrs, e.err == nil, nil, nil
	case done != nil:
		return nil, false, e, done
	}
	return e.nbrs, false, nil, nil
}

// QueryBatchContext resolves all ids, blocking until every neighbor list is
// available, and returns them in input order. Misses are fetched
// concurrently — they coalesce with any in-flight fetches and with each
// other — so a batch of m cold ids costs roughly one RealLatency of
// wall-clock, not m, while each id is billed as a demand query exactly once
// however many batches or walkers race for it. Cancellation or deadline
// expiry aborts the in-flight misses promptly (see NeighborsContext for the
// exact billing semantics). The first error (if any) is returned after all
// fetches settle; lists already resolved are still returned at their slots.
func (c *Client) QueryBatchContext(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, error) {
	out := make([][]graph.NodeID, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, v := range ids {
		if nbrs, ok := c.CachedNeighbors(v); ok {
			out[i] = nbrs
			continue
		}
		wg.Add(1)
		go func(i int, v graph.NodeID) {
			defer wg.Done()
			out[i], errs[i] = c.NeighborsContext(ctx, v)
		}(i, v)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Neighbors returns v's neighbor list (shared slice, do not modify),
// querying on a cache miss. Unknown IDs return nil — walkers only ever hold
// IDs the interface handed them, so this is a programming-error guard, not a
// control path.
func (c *Client) Neighbors(v graph.NodeID) []graph.NodeID {
	//rewirelint:allow ctxflow context-less convenience shim; ctx-aware callers use NeighborsContext
	nbrs, _ := c.NeighborsContext(context.Background(), v)
	return nbrs
}

// Degree returns v's degree, querying on a cache miss (0 for unknown IDs).
func (c *Client) Degree(v graph.NodeID) int {
	return len(c.Neighbors(v))
}

// Cached reports whether v's neighbor list is already in the local store
// AND has been paid for by a demand query. Speculative prefetch results are
// deliberately excluded: free-knowledge consumers (the Theorem 5 criterion)
// must see the exact same world with and without prefetching, or enabling
// the pool would silently change trajectories and query bills.
func (c *Client) Cached(v graph.NodeID) bool {
	_, ok := c.CachedNeighbors(v)
	return ok
}

// Known reports whether a fetch for v is already cached (demanded or
// speculative) or in flight — i.e. whether issuing a prefetch hint for v
// would be redundant. Prefetch strategies use it to spend their hint budget
// on genuinely cold nodes.
func (c *Client) Known(v graph.NodeID) bool {
	// Failed fetches delete their entry, so presence == cached or in flight.
	return c.state.Load(v) != nil
}

// CachedDegree returns v's degree if — and only if — it is already known
// locally through a demand query, without issuing one. This is the
// "historical information ... without paying any query cost" of the paper's
// Theorem 5 extension. Speculative entries are excluded (see Cached).
func (c *Client) CachedDegree(v graph.NodeID) (int, bool) {
	nbrs, ok := c.CachedNeighbors(v)
	return len(nbrs), ok
}

// LowDegreeCount returns how many demand-cached users have degree 2 or 3:
// the common neighbors Theorem 5 can credit. Lists never change and entries
// are never evicted, so the count only grows, and an unchanged count means
// an unchanged set of such users. Speculative entries count once a demand
// query upgrades them.
func (c *Client) LowDegreeCount() int64 { return c.lowDeg.Load() }

// noteVisible counts a list that just became demand-visible toward
// LowDegreeCount. Callers hold the list's stripe lock and have already
// stored its demanded state.
func (c *Client) noteVisible(nbrs []graph.NodeID) {
	if n := len(nbrs); n == 2 || n == 3 {
		c.lowDeg.Add(1)
	}
}

// CachedNeighbors returns v's neighbor list (shared slice, do not modify) if
// already demand-cached. Prefetch strategies use it to read the walk
// frontier without spending queries. It takes no lock: the entry's state is
// stored after its list is written.
func (c *Client) CachedNeighbors(v graph.NodeID) ([]graph.NodeID, bool) {
	if e := c.state.Load(v); e != nil && e.state.Load() == demanded {
		return e.nbrs, true
	}
	return nil, false
}

// UniqueQueries returns the paper's query-cost metric: lists a sampler
// actually demanded. Speculative fetches still sitting unconsumed in the
// cache are not included — see SpeculativeCount for the pool's outstanding
// bet and Service.TotalQueries for the provider's view.
func (c *Client) UniqueQueries() int64 {
	c.led.mu.Lock()
	defer c.led.mu.Unlock()
	return c.led.unique
}

// SpeculativeCount returns the number of prefetched lists no demand
// query has consumed yet.
func (c *Client) SpeculativeCount() int64 {
	c.led.mu.Lock()
	defer c.led.mu.Unlock()
	return c.led.speculative
}

// NumUsers exposes the provider-published user count (0 when the backend
// lacks the UserCounter capability — such backends can still be queried, but
// a session over them must pin explicit start nodes).
func (c *Client) NumUsers() int { return backendUsers(c.be) }

// CacheSize returns the number of distinct users stored locally (demanded
// and speculative).
func (c *Client) CacheSize() int {
	c.led.mu.Lock()
	defer c.led.mu.Unlock()
	return int(c.led.size)
}

// TenantBill is one tenant's slice of the billing ledger (see WithTenant).
type TenantBill struct {
	// Unique is the tenant's demand-query bill: fetches whose FIRST demand
	// came from this tenant, plus speculative lists this tenant's
	// demand consumed. Cache hits and coalesced waits are free, so
	// Σ all tenants' Unique == UniqueQueries exactly.
	Unique int64
	// Reserved counts the tenant's in-flight demanded fetches (each will
	// bill one unique query if it commits successfully).
	Reserved int64
	// Budget is the tenant's private demand-query cap (0 = none). The
	// client-wide budget still applies on top.
	Budget int64
}

// TenantBill returns the named tenant's current ledger slice ("" is the
// anonymous tenant — demand queries from contexts without WithTenant).
func (c *Client) TenantBill(name string) TenantBill {
	c.led.mu.Lock()
	defer c.led.mu.Unlock()
	t := c.led.tenants[name]
	if t == nil {
		return TenantBill{}
	}
	return TenantBill{Unique: t.unique, Reserved: t.reserved, Budget: t.budget}
}

// TenantBills returns every tenant's ledger slice, keyed by tenant name, as
// a private copy consistent at one ledger instant.
func (c *Client) TenantBills() map[string]TenantBill {
	c.led.mu.Lock()
	defer c.led.mu.Unlock()
	out := make(map[string]TenantBill, len(c.led.tenants))
	for name, t := range c.led.tenants {
		out[name] = TenantBill{Unique: t.unique, Reserved: t.reserved, Budget: t.budget}
	}
	return out
}

// SetTenantBudget caps the named tenant's unique demand queries at n
// (n <= 0 removes the cap). The tenant's demand path returns
// ErrBudgetExhausted once its own bill reaches the cap, regardless of how
// much client-wide budget remains — billing isolation's enforcement half.
// Safe to raise mid-run to resume the tenant's exhausted jobs.
func (c *Client) SetTenantBudget(name string, n int64) {
	c.led.mu.Lock()
	c.led.tenantLocked(name).budget = n
	c.led.mu.Unlock()
	if c.journal != nil {
		// Best-effort, as in SetBudget.
		_ = c.journal.RecordTenantBudget(name, n)
	}
}
