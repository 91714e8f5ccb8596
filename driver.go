package rewire

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/httpsrc"
	"rewire/internal/osn"
	"rewire/internal/rng"
)

// Driver opens a Backend from a parsed URL — the sql-driver-style extension
// point of the SDK. Built-in schemes:
//
//	mem:barbell?n=50              in-memory generated graph (free, local)
//	mem:social?nodes=1000&edges=4000&seed=1
//	mem:preset?name=Epinions&full=false
//	sim:barbell?n=50&limits=facebook   simulated restrictive provider over
//	                                   the same graph specs (qpw, window,
//	                                   latency, real override individual
//	                                   quota fields)
//	http://host/path?timeout=5s   live JSON neighbor-list provider
//	                              (driver params: timeout, retries, backoff,
//	                              max_backoff — anything else is forwarded
//	                              to the provider; retries, backoff and
//	                              max_backoff configure the WithRetry the
//	                              driver wraps around it; one Fetch is one
//	                              request, so coalescing and chunking are
//	                              WithBatching's, composed over the opened
//	                              backend)
//	snapshot:crawl.csr            read-only binary CSR snapshot, mmap'd on
//	                              linux (?mode=readerat forces the portable
//	                              io.ReaderAt path)
//	cache:DIR?src=URL             durable write-ahead-logged cache over any
//	                              other scheme: fetches persist before they
//	                              are served, and reopening the directory
//	                              warm-starts cache and billing ledger
//	                              exactly (?fsync=1 fsyncs per record)
//
// Third parties add schemes with Register. Open never retains u; a Driver
// may.
type Driver interface {
	Open(ctx context.Context, u *url.URL) (Backend, error)
}

// DriverFunc adapts a function to the Driver interface.
type DriverFunc func(ctx context.Context, u *url.URL) (Backend, error)

// Open implements Driver.
func (f DriverFunc) Open(ctx context.Context, u *url.URL) (Backend, error) { return f(ctx, u) }

var (
	driversMu sync.RWMutex
	drivers   = make(map[string]Driver)
)

// Register makes a driver available to Open under the given URL scheme. It
// panics on an empty scheme, a nil driver, or a duplicate registration —
// like database/sql, registration is an init-time affair and such mistakes
// are programmer errors.
func Register(scheme string, d Driver) {
	driversMu.Lock()
	defer driversMu.Unlock()
	if scheme == "" {
		panic("rewire: Register with empty scheme")
	}
	if d == nil {
		panic("rewire: Register with nil driver")
	}
	if _, dup := drivers[scheme]; dup {
		panic("rewire: Register called twice for scheme " + scheme)
	}
	drivers[scheme] = d
}

// Drivers returns the registered scheme names, sorted.
func Drivers() []string {
	driversMu.RLock()
	defer driversMu.RUnlock()
	out := make([]string, 0, len(drivers))
	for s := range drivers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Open resolves rawURL's scheme against the driver registry, opens the
// backend under ctx (drivers use it for their connectivity probes — an
// unreachable HTTP provider fails here, not on the first walk step), and
// wraps it in a Provider: the cached, demand-billed, budget- and
// prefetch-capable Source every backend gets for free. Close the Provider
// when done; backends holding resources (snapshot mappings, HTTP
// connections) release them there.
//
// An unresolvable scheme fails with an *UnknownDriverError (class
// ErrUnknownDriver) naming the scheme and the registered alternatives.
func Open(ctx context.Context, rawURL string) (*Provider, error) {
	be, err := OpenBackend(ctx, rawURL)
	if err != nil {
		return nil, err
	}
	return BackendSource(be), nil
}

// OpenBackend is Open without the Provider wrapping: it resolves rawURL's
// scheme and returns the raw Backend the driver produced. Use it to compose
// middleware (WithRetry, WithRateLimit, WithMetrics) around the backend
// before building the Provider yourself with BackendSource — the layering a
// multi-tenant service needs, where one shared Provider per URL carries
// service-wide rate limits and metrics underneath every tenant.
func OpenBackend(ctx context.Context, rawURL string) (Backend, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("rewire: parsing %q: %w", rawURL, err)
	}
	if u.Scheme == "" {
		return nil, &UnknownDriverError{URL: rawURL, Drivers: Drivers()}
	}
	driversMu.RLock()
	d, ok := drivers[u.Scheme]
	driversMu.RUnlock()
	if !ok {
		return nil, &UnknownDriverError{Scheme: u.Scheme, URL: rawURL, Drivers: Drivers()}
	}
	return d.Open(ctx, u)
}

func init() {
	Register("mem", DriverFunc(openMem))
	Register("sim", DriverFunc(openSim))
	Register("http", DriverFunc(openHTTP))
	Register("https", DriverFunc(openHTTP))
	Register("snapshot", DriverFunc(openSnapshot))
	Register("cache", DriverFunc(openCache))
}

// parseGraphSpec builds the in-memory graph a mem: or sim: URL describes.
// The opaque part names the generator; query parameters tune it.
func parseGraphSpec(u *url.URL) (*Graph, error) {
	kind := u.Opaque
	if kind == "" {
		kind = u.Path
	}
	q := u.Query()
	switch kind {
	case "barbell":
		n := 50
		if s := q.Get("n"); s != "" {
			var err error
			if n, err = strconv.Atoi(s); err != nil || n < 3 {
				return nil, fmt.Errorf("rewire: %s: bad clique size n=%q", u.Scheme, s)
			}
		}
		return Barbell(n), nil
	case "social":
		nodes, edges, seed := 1000, 4000, uint64(1)
		if s := q.Get("nodes"); s != "" {
			var err error
			if nodes, err = strconv.Atoi(s); err != nil || nodes < 2 {
				return nil, fmt.Errorf("rewire: %s: bad nodes=%q", u.Scheme, s)
			}
		}
		if s := q.Get("edges"); s != "" {
			var err error
			if edges, err = strconv.Atoi(s); err != nil || edges < 1 {
				return nil, fmt.Errorf("rewire: %s: bad edges=%q", u.Scheme, s)
			}
		}
		if s := q.Get("seed"); s != "" {
			var err error
			if seed, err = strconv.ParseUint(s, 10, 64); err != nil {
				return nil, fmt.Errorf("rewire: %s: bad seed=%q", u.Scheme, s)
			}
		}
		return gen.Social(gen.SocialConfig{Nodes: nodes, TargetEdges: edges}, rng.New(seed))
	case "preset":
		name := q.Get("name")
		if name == "" {
			return nil, fmt.Errorf("rewire: %s:preset needs name=", u.Scheme)
		}
		full := false
		if s := q.Get("full"); s != "" {
			var err error
			if full, err = strconv.ParseBool(s); err != nil {
				return nil, fmt.Errorf("rewire: %s: bad full=%q", u.Scheme, s)
			}
		}
		return PresetGraph(name, full)
	default:
		return nil, fmt.Errorf("rewire: %s: unknown graph spec %q (want barbell, social, or preset)", u.Scheme, kind)
	}
}

// graphBackend serves an immutable in-memory graph through the driver
// contract. Neighbor lists are zero-copy CSR views — safe to hand out
// because the graph is immutable and lives as long as the backend, and the
// Provider clones before anything caller-mutable escapes.
type graphBackend struct{ g *Graph }

func (b graphBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]NodeID, len(ids))
	for i, v := range ids {
		if v < 0 || int(v) >= b.g.NumNodes() {
			return nil, fmt.Errorf("%w: id %d", ErrNoSuchUser, v)
		}
		out[i] = b.g.Neighbors(v)
	}
	return out, nil
}

func (b graphBackend) NumUsers() int { return b.g.NumNodes() }

func openMem(ctx context.Context, u *url.URL) (Backend, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err := parseGraphSpec(u)
	if err != nil {
		return nil, err
	}
	return graphBackend{g: g}, nil
}

// parseLimits resolves the sim: quota parameters: limits= names a preset
// (facebook, twitter, none — default none), and qpw, window, latency, real
// override individual fields.
func parseLimits(u *url.URL) (Limits, error) {
	q := u.Query()
	var lim Limits
	switch name := q.Get("limits"); name {
	case "", "none":
	case "facebook":
		lim = FacebookLimits()
	case "twitter":
		lim = TwitterLimits()
	default:
		return lim, fmt.Errorf("rewire: sim: unknown limits preset %q", name)
	}
	if s := q.Get("qpw"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return lim, fmt.Errorf("rewire: sim: bad qpw=%q", s)
		}
		lim.QueriesPerWindow = n
	}
	for _, f := range []struct {
		key string
		dst *time.Duration
	}{
		{"window", &lim.Window},
		{"latency", &lim.PerQueryLatency},
		{"real", &lim.RealLatency},
	} {
		if s := q.Get(f.key); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil || d < 0 {
				return lim, fmt.Errorf("rewire: sim: bad %s=%q", f.key, s)
			}
			*f.dst = d
		}
	}
	if lim.QueriesPerWindow > 0 && lim.Window <= 0 {
		// A quota without a window would never bind: the simulator opens a
		// fresh window for every query.
		return lim, fmt.Errorf("rewire: sim: qpw=%d needs a positive window", lim.QueriesPerWindow)
	}
	return lim, nil
}

func openSim(ctx context.Context, u *url.URL) (Backend, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err := parseGraphSpec(u)
	if err != nil {
		return nil, err
	}
	lim, err := parseLimits(u)
	if err != nil {
		return nil, err
	}
	// The simulator is a Backend itself; a Provider over it finds the
	// simulation telemetry with BackendAs[*osn.Service].
	return osn.NewService(g, nil, lim), nil
}

// httpDriverParams are the query keys the http driver consumes; everything
// else stays on the base URL and reaches the provider.
var httpDriverParams = []string{"timeout", "retries", "backoff", "max_backoff"}

func openHTTP(ctx context.Context, u *url.URL) (Backend, error) {
	q := u.Query()
	for _, k := range []string{"batch", "batchwait"} {
		// A URL carrying these expects the driver to coalesce. Forwarding
		// them would hand the provider parameters it never asked for, so
		// the URL fails here, pointing at the coalescer that does the job.
		if q.Has(k) {
			return nil, fmt.Errorf("rewire: http: %s= is not a driver parameter; compose WithBatching over the opened backend", k)
		}
	}
	opt := httpsrc.Options{}
	var ro RetryOptions
	var err error
	for _, f := range []struct {
		key string
		dst *time.Duration
	}{
		{"timeout", &opt.RequestTimeout},
		{"backoff", &ro.BaseDelay},
		{"max_backoff", &ro.MaxDelay},
	} {
		if s := q.Get(f.key); s != "" {
			if *f.dst, err = time.ParseDuration(s); err != nil {
				return nil, fmt.Errorf("rewire: http: bad %s=%q", f.key, s)
			}
		}
	}
	if s := q.Get("retries"); s != "" {
		if ro.MaxAttempts, err = strconv.Atoi(s); err != nil || ro.MaxAttempts < 1 {
			return nil, fmt.Errorf("rewire: http: bad retries=%q", s)
		}
	}
	ro = ro.withDefaults()
	base := *u
	for _, k := range httpDriverParams {
		q.Del(k)
	}
	base.RawQuery = q.Encode()
	opt.BaseURL = base.String()
	hb, err := httpsrc.New(opt)
	if err != nil {
		return nil, err
	}
	// Eager connectivity + metadata probe under the caller's ctx and the same
	// retry policy as fetches: an unreachable or non-protocol endpoint fails
	// at Open, and the published user count is cached before the first walk
	// asks for it.
	if err := ro.retry(ctx, func() error {
		_, err := hb.Meta(ctx)
		return err
	}); err != nil {
		return nil, fmt.Errorf("rewire: http: probing %s: %w", opt.BaseURL, err)
	}
	return WithRetry(hb, ro), nil
}

// snapshotBackend serves a read-only CSR snapshot through the driver
// contract. Rows are cloned on fetch: cached neighbor lists must survive
// Close unmapping the file.
type snapshotBackend struct {
	snap  *graph.Snapshot
	extra func() error // additional closer (the readerat-mode file handle)
}

func (b *snapshotBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]NodeID, len(ids))
	for i, v := range ids {
		if v < 0 || int(v) >= b.snap.NumNodes() {
			return nil, fmt.Errorf("%w: id %d", ErrNoSuchUser, v)
		}
		nbrs, err := b.snap.Neighbors(v)
		if err != nil {
			return nil, err
		}
		out[i] = slices.Clone(nbrs)
	}
	return out, nil
}

func (b *snapshotBackend) NumUsers() int { return b.snap.NumNodes() }

func (b *snapshotBackend) Close() error {
	err := b.snap.Close()
	if b.extra != nil {
		if e := b.extra(); err == nil {
			err = e
		}
		b.extra = nil
	}
	return err
}

func openSnapshot(ctx context.Context, u *url.URL) (Backend, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	path := u.Opaque
	if path == "" {
		path = u.Path
	}
	if path == "" {
		return nil, fmt.Errorf("rewire: snapshot: empty path in %q", u.String())
	}
	if u.Query().Get("mode") == "readerat" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		snap, err := graph.OpenSnapshotReaderAt(f, st.Size())
		if err != nil {
			f.Close()
			return nil, err
		}
		return &snapshotBackend{snap: snap, extra: f.Close}, nil
	}
	snap, err := graph.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	return &snapshotBackend{snap: snap}, nil
}
