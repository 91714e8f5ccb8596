package rewire

import (
	"context"
	"fmt"
	"slices"
	"time"

	"rewire/internal/durable"
	"rewire/internal/osn"
)

// Source is the network backend a Session samples from. The built-in
// implementations are in-memory graphs (GraphSource — free local access, for
// ground-truth work) and Providers (Simulate, Open, BackendSource — the
// paper's access model, with unique-query cost accounting over any Backend).
// Every query a Session issues flows through this interface, and the
// context-taking form is what makes cancellation and deadlines abort
// in-flight round-trips.
//
// Aliasing contract (applies to every Source and to Provider.QueryBatch): a
// returned neighbor slice is the caller's to read, never to modify in place.
// GraphSource hands out read-only views into its graph's CSR storage
// (zero-copy, capacity clipped so an append reallocates); Provider returns
// defensive copies, because its cached lists also feed the billing ledger
// and the Theorem 5 criterion and must stay immune to caller mutation. Code
// that wants a mutable list clones it.
type Source interface {
	// Neighbors returns v's neighbor list (see the aliasing contract on
	// Source), or nil for unknown IDs and failed round-trips — use
	// NeighborsContext to see the error.
	Neighbors(v NodeID) []NodeID
	// Degree returns len(Neighbors(v)).
	Degree(v NodeID) int
	// NeighborsContext is Neighbors bound to a context: any round-trip the
	// read requires honors ctx, and failures (cancellation, deadline, budget
	// exhaustion, unknown IDs) are returned instead of swallowed. Unknown IDs
	// fail with an error matching ErrNoSuchUser on every backend.
	NeighborsContext(ctx context.Context, v NodeID) ([]NodeID, error)
	// NumUsers returns the total user count — the provider-published figure
	// Random Jump needs for its ID space (0 when the backend does not publish
	// one).
	NumUsers() int
}

// GraphSource exposes an in-memory graph as a Source: every read is free and
// instantaneous, so sessions over it measure pure algorithm behavior. It is
// the compatibility layer over the mem: driver's free-access semantics —
// unlike Open("mem:..."), nothing is cached or billed, because there is no
// cost model to account under. Neighbor lists follow the Source aliasing
// contract (read-only CSR views).
func GraphSource(g *Graph) Source { return graphSource{g} }

type graphSource struct{ g *Graph }

func (s graphSource) Neighbors(v NodeID) []NodeID {
	if v < 0 || int(v) >= s.g.NumNodes() {
		return nil
	}
	return s.g.Neighbors(v)
}

func (s graphSource) Degree(v NodeID) int {
	if v < 0 || int(v) >= s.g.NumNodes() {
		return 0
	}
	return s.g.Degree(v)
}

func (s graphSource) NumUsers() int { return s.g.NumNodes() }

func (s graphSource) NeighborsContext(ctx context.Context, v NodeID) ([]NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if v < 0 || int(v) >= s.g.NumNodes() {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchUser, v)
	}
	return s.g.Neighbors(v), nil
}

// Limits configures a simulated provider's restrictions, mirroring the
// published quotas of real social networks: QueriesPerWindow queries per
// Window (0 disables rate limiting; Window must be positive when
// QueriesPerWindow is, and Simulate panics otherwise), a simulated
// PerQueryLatency that advances only the simulated clock, and a RealLatency
// that actually blocks the querying goroutine, interruptibly, for that long.
type Limits = osn.Config

// FacebookLimits mirrors the paper's cited Facebook quota: 600 open-graph
// queries per 600 seconds.
func FacebookLimits() Limits { return osn.FacebookLimits() }

// TwitterLimits mirrors the paper's cited Twitter quota: 350 requests/hour.
func TwitterLimits() Limits { return osn.TwitterLimits() }

// PrefetchStats counts a provider's speculative-fetch activity.
type PrefetchStats = osn.PrefetchStats

// Provider is the cached, demand-billed client over any Backend: the only
// operation is the individual-user query q(v), with the paper's cost
// accounting — only unique demanded queries count; duplicates and
// speculative prefetches are served from (or parked in) a local sharded
// cache. Construct one with Simulate (simulated restrictive interface over
// an in-memory graph), Open (URL-style driver resolution: mem, sim, http,
// snapshot, or third-party schemes), or BackendSource (any hand-built
// Backend, middleware included).
//
// A Provider is safe for concurrent use and is the backend to pass
// NewSession for any experiment where query cost or latency matters.
// Returned neighbor slices are defensive copies — see the Source aliasing
// contract.
type Provider struct {
	svc     *osn.Service // non-nil only for simulated backends
	client  *osn.Client
	backend Backend
	durable *durable.Cache // non-nil once a durable cache is attached
}

// Simulate wraps g in a simulated provider under the given limits: it is
// BackendSource over the simulator, the same stack Open(ctx,
// "sim:...?limits=facebook") builds. Fixed-seed trajectories and
// unique-query bills are pinned by the CI bench gate.
func Simulate(g *Graph, limits Limits) *Provider {
	return BackendSource(osn.NewService(g, nil, limits))
}

// BackendSource wraps any Backend in a Provider, attaching the full client
// stack: sharded neighbor-list cache, per-user singleflight, unique-query
// demand billing, budgets, and the speculative prefetch pool. Capabilities
// (UserCounter, RateLimited, io.Closer) are discovered through the
// backend's Unwrap chain, so middleware composition never hides them.
func BackendSource(b Backend) *Provider {
	p := &Provider{client: osn.NewClient(b), backend: b}
	// A simulated backend, bare or wrapped, reports its simulation telemetry.
	p.svc, _ = BackendAs[*osn.Service](b)
	if cb, ok := BackendAs[*cacheBackend](b); ok {
		// A cache: backend carries an opened durable cache; replay its
		// recovered state into the fresh client and journal from here on.
		// Attach can only fail on a client that already served queries or a
		// cache already wired to another provider — programmer errors on the
		// order of a duplicate Register, so they panic the same way.
		if err := cb.cache.Attach(p.client); err != nil {
			panic("rewire: attaching durable cache backend: " + err.Error())
		}
		p.durable = cb.cache
	}
	return p
}

// Backend returns the backend this provider wraps. Probe it for
// capabilities — e.g. RateLimited, or a WithMetrics wrapper's Metrics
// method.
func (p *Provider) Backend() Backend { return p.backend }

// Close releases resources held by the backend chain (snapshot mappings,
// idle HTTP connections) and, when a durable cache is attached, seals its
// write-ahead log and releases the directory lock. The provider's in-memory
// cache and ledger survive Close — but fetches after it will fail for
// backends that needed those resources, and nothing is journaled anymore.
// Providers over purely in-memory backends without a durable cache make
// Close a no-op.
func (p *Provider) Close() error {
	var first error
	if p.durable != nil {
		// Idempotent: for cache: backends the chain walk below reaches the
		// same cache again through cacheBackend.Close, which is then a no-op.
		first = p.durable.Close()
	}
	if err := closeBackend(p.backend); first == nil {
		first = err
	}
	return first
}

// Neighbors returns v's neighbor list, querying (and billing) on a cache
// miss; nil for unknown IDs or failed round-trips — use NeighborsContext to
// see the error. The slice is a defensive copy (Source aliasing contract).
func (p *Provider) Neighbors(v NodeID) []NodeID {
	nbrs := p.client.Neighbors(v)
	if nbrs == nil {
		return nil
	}
	return slices.Clone(nbrs)
}

// Degree returns v's degree, querying on a cache miss.
func (p *Provider) Degree(v NodeID) int { return p.client.Degree(v) }

// NeighborsContext returns v's neighbor list (a defensive copy, per the
// Source aliasing contract) with the round-trip bound to ctx; cancellation
// aborts the in-flight request without billing it.
func (p *Provider) NeighborsContext(ctx context.Context, v NodeID) ([]NodeID, error) {
	nbrs, err := p.client.NeighborsContext(ctx, v)
	if err != nil {
		return nil, err
	}
	return slices.Clone(nbrs), nil
}

// NumUsers returns the provider-published user count (0 when the backend
// lacks the UserCounter capability).
func (p *Provider) NumUsers() int { return p.client.NumUsers() }

// QueryBatch resolves all ids under ctx, overlapping the misses' round-trips,
// and returns the neighbor lists in input order (defensive copies, per the
// Source aliasing contract). Each id bills at most one unique query no
// matter how many batches or walkers race for it. On failure — cancellation,
// budget exhaustion, an unknown id — the batch returns nil results with the
// error; responses that resolved before the failure are cached and billed,
// and re-querying them is free.
func (p *Provider) QueryBatch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	lists, err := p.client.QueryBatchContext(ctx, ids)
	if err != nil {
		return nil, err
	}
	for i, nbrs := range lists {
		lists[i] = slices.Clone(nbrs)
	}
	return lists, nil
}

// SetBudget caps unique (demand) queries at n; the sampling path returns
// ErrBudgetExhausted instead of billing past it. n <= 0 removes the cap.
// Raising the budget mid-run resumes an exhausted walk.
func (p *Provider) SetBudget(n int64) { p.client.SetBudget(n) }

// UniqueQueries returns the paper's query-cost metric: distinct users a
// sampler actually demanded (speculative prefetches park outside the ledger
// until consumed).
func (p *Provider) UniqueQueries() int64 { return p.client.UniqueQueries() }

// TenantBill is one tenant's slice of a provider's billing ledger: its
// demanded unique queries, in-flight reservations, and private budget. See
// WithTenant for how queries acquire a tenant attribution.
type TenantBill = osn.TenantBill

// WithTenant returns a context whose demand queries are attributed to the
// named tenant in the provider's per-tenant ledger. Attribution rides the
// context, not the Provider, so any number of tenants can share one
// provider — one cache, one singleflight, one global ledger — while their
// bills stay exactly separable: a query is billed to the tenant whose
// demand made it billable (first demand of a fetch, or first demand touch
// of a speculative response); cache hits and coalesced waits are free for
// everyone. The empty name is the anonymous tenant, so the invariant
// Σ TenantBill.Unique == UniqueQueries holds unconditionally.
func WithTenant(ctx context.Context, name string) context.Context {
	return osn.WithTenant(ctx, name)
}

// TenantFrom returns the tenant name carried by ctx ("" when none).
func TenantFrom(ctx context.Context) string { return osn.TenantFrom(ctx) }

// TenantBill returns the named tenant's current ledger slice ("" is the
// anonymous tenant).
func (p *Provider) TenantBill(name string) TenantBill { return p.client.TenantBill(name) }

// TenantBills returns every tenant's ledger slice keyed by name — a private
// copy, consistent at one ledger instant.
func (p *Provider) TenantBills() map[string]TenantBill { return p.client.TenantBills() }

// SetTenantBudget caps the named tenant's unique demand queries at n
// (n <= 0 removes the cap), independently of the provider-wide SetBudget
// cap. The tenant's queries fail with ErrBudgetExhausted once its own bill
// reaches the cap, however much global budget remains.
func (p *Provider) SetTenantBudget(name string, n int64) { p.client.SetTenantBudget(name, n) }

// CachedDegree returns v's degree if — and only if — it is already known
// locally through a demand query, without issuing (or billing) one: the
// paper's free historical knowledge, exposed so read-only consumers (a
// serving layer computing estimates from delivered samples) never perturb
// the bill. Speculative prefetch results are excluded until demanded.
func (p *Provider) CachedDegree(v NodeID) (int, bool) { return p.client.CachedDegree(v) }

// CacheSize returns the number of distinct users stored locally (demanded
// and speculative).
func (p *Provider) CacheSize() int { return p.client.CacheSize() }

// TotalQueries returns the simulated provider-side request count (including
// speculative and coalesced duplicates served before caching); 0 for
// non-simulated backends, which meter on their own side.
func (p *Provider) TotalQueries() int64 {
	if p.svc == nil {
		return 0
	}
	return p.svc.TotalQueries()
}

// SimulatedElapsed returns the simulated wall-clock consumed so far (0 for
// non-simulated backends).
func (p *Provider) SimulatedElapsed() time.Duration {
	if p.svc == nil {
		return 0
	}
	return p.svc.SimulatedElapsed()
}

// RateLimitWaits returns how many times a query sat out a simulated
// rate-limit window (0 for non-simulated backends — see RateLimit for live
// quota feedback).
func (p *Provider) RateLimitWaits() int64 {
	if p.svc == nil {
		return 0
	}
	return p.svc.RateLimitWaits()
}

// RateLimit returns the backend's live quota feedback when it has the
// RateLimited capability (the HTTP driver mirrors X-RateLimit-* headers
// here); ok is false otherwise, and until feedback has been observed.
func (p *Provider) RateLimit() (RateLimitInfo, bool) {
	rl, ok := BackendAs[RateLimited](p.backend)
	if !ok {
		return RateLimitInfo{}, false
	}
	return rl.RateLimit()
}

// PrefetchStats returns the speculative pool's counters (zero without
// prefetching configured). Unused counts prefetched responses no demand
// query has consumed yet.
func (p *Provider) PrefetchStats() PrefetchStats { return p.client.PrefetchStats() }

var (
	_ Source = graphSource{}
	_ Source = (*Provider)(nil)
)
