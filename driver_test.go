package rewire_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rewire"
	"rewire/internal/httpsrc"
	"rewire/internal/serve"
)

// fakeBackend is a scriptable Backend for middleware tests.
type fakeBackend struct {
	mu      sync.Mutex
	graph   map[rewire.NodeID][]rewire.NodeID
	users   int
	fails   int // fail this many Fetches before succeeding
	failErr error
	calls   atomic.Int64
	closed  atomic.Bool
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		graph: map[rewire.NodeID][]rewire.NodeID{
			0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2},
		},
		users:   4,
		failErr: errors.New("transient blip"),
	}
}

func (f *fakeBackend) Fetch(ctx context.Context, ids []rewire.NodeID) ([][]rewire.NodeID, error) {
	f.calls.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.fails > 0 {
		f.fails--
		f.mu.Unlock()
		return nil, f.failErr
	}
	f.mu.Unlock()
	out := make([][]rewire.NodeID, len(ids))
	for i, v := range ids {
		nbrs, ok := f.graph[v]
		if !ok {
			return nil, fmt.Errorf("%w: id %d", rewire.ErrNoSuchUser, v)
		}
		out[i] = slices.Clone(nbrs)
	}
	return out, nil
}

func (f *fakeBackend) NumUsers() int { return f.users }
func (f *fakeBackend) Close() error  { f.closed.Store(true); return nil }

func TestOpenUnknownScheme(t *testing.T) {
	ctx := context.Background()
	if _, err := rewire.Open(ctx, "bogus:thing"); !errors.Is(err, rewire.ErrUnknownDriver) {
		t.Fatalf("err = %v, want ErrUnknownDriver", err)
	}
	if _, err := rewire.Open(ctx, "no-scheme-at-all"); !errors.Is(err, rewire.ErrUnknownDriver) {
		t.Fatalf("err = %v, want ErrUnknownDriver", err)
	}
	for _, s := range []string{"mem", "sim", "http", "https", "snapshot"} {
		if !slices.Contains(rewire.Drivers(), s) {
			t.Fatalf("built-in scheme %q not registered (have %v)", s, rewire.Drivers())
		}
	}
}

func TestOpenBadSpecs(t *testing.T) {
	ctx := context.Background()
	for _, u := range []string{
		"mem:unknowngen",
		"mem:barbell?n=1",
		"mem:social?nodes=x",
		"mem:preset",                                 // missing name
		"sim:barbell?limits=ebz",                     // unknown preset
		"sim:barbell?window=ns5",                     // bad duration
		"sim:barbell?n=10&qpw=2",                     // quota without a window
		"sim:barbell?n=10&limits=facebook&window=0s", // preset quota, window zeroed
		"snapshot:",                                  // empty path
		"snapshot:/definitely/not/a/file.csr",
	} {
		if _, err := rewire.Open(ctx, u); err == nil {
			t.Errorf("Open(%q) succeeded, want error", u)
		}
	}
}

// TestOpenSocialInfeasibleDegreeTarget pins that a sim:social URL whose
// degree target the generator cannot meet fails to open at once instead of
// pinning a CPU: 50,000 edges over 50,000 nodes is mean degree 2, below the
// generator's minimum of 3.
func TestOpenSocialInfeasibleDegreeTarget(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := rewire.OpenBackend(context.Background(), "sim:social?nodes=50000&edges=50000")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("OpenBackend succeeded, want an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OpenBackend still running after 5 s")
	}
}

// TestLimitsAndRateLimitInfoFields names every exported field of Limits and
// RateLimitInfo: both alias the client stack's definitions, which the API
// snapshot prints as one line each, so a field renamed there fails this
// package's build instead.
func TestLimitsAndRateLimitInfoFields(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want rewire.Limits
	}{
		{"facebook", rewire.FacebookLimits(), rewire.Limits{QueriesPerWindow: 600, Window: 600 * time.Second, PerQueryLatency: 50 * time.Millisecond, RealLatency: 0}},
		{"twitter", rewire.TwitterLimits(), rewire.Limits{QueriesPerWindow: 350, Window: time.Hour, PerQueryLatency: 50 * time.Millisecond, RealLatency: 0}},
	} {
		if c.got != c.want {
			t.Errorf("%s limits = %+v, want %+v", c.name, c.got, c.want)
		}
	}
	// A simulated provider publishes no live quota feedback.
	rl, ok := rewire.Simulate(rewire.Barbell(3), rewire.FacebookLimits()).RateLimit()
	if ok || rl != (rewire.RateLimitInfo{Limit: 0, Remaining: 0, Reset: time.Time{}}) {
		t.Errorf("simulated RateLimit = %+v, %v; want zero, false", rl, ok)
	}
}

func TestRegisterThirdPartyDriver(t *testing.T) {
	fb := newFakeBackend()
	rewire.Register("faketest", rewire.DriverFunc(func(ctx context.Context, u *url.URL) (rewire.Backend, error) {
		if u.Opaque != "net" {
			return nil, fmt.Errorf("bad opaque %q", u.Opaque)
		}
		return fb, nil
	}))
	p, err := rewire.Open(context.Background(), "faketest:net")
	if err != nil {
		t.Fatal(err)
	}
	if n := p.NumUsers(); n != 4 {
		t.Fatalf("NumUsers = %d, want 4", n)
	}
	nbrs, err := p.NeighborsContext(context.Background(), 2)
	if err != nil || !slices.Equal(nbrs, []rewire.NodeID{0, 1, 3}) {
		t.Fatalf("NeighborsContext(2) = %v, %v", nbrs, err)
	}
	if err := p.Close(); err != nil || !fb.closed.Load() {
		t.Fatalf("Close did not reach the backend (err %v, closed %v)", err, fb.closed.Load())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	rewire.Register("faketest", rewire.DriverFunc(func(context.Context, *url.URL) (rewire.Backend, error) {
		return nil, nil
	}))
}

func TestWithRetryRecoversTransientFailures(t *testing.T) {
	fb := newFakeBackend()
	fb.fails = 2
	b := rewire.WithRetry(fb, rewire.RetryOptions{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond})
	lists, err := b.Fetch(context.Background(), []rewire.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lists[0], []rewire.NodeID{1, 2}) {
		t.Fatalf("lists[0] = %v", lists[0])
	}
	if c := fb.calls.Load(); c != 3 {
		t.Fatalf("inner saw %d calls, want 3", c)
	}
}

func TestWithRetryDoesNotRetryNoSuchUser(t *testing.T) {
	fb := newFakeBackend()
	b := rewire.WithRetry(fb, rewire.RetryOptions{MaxAttempts: 5, BaseDelay: time.Millisecond})
	if _, err := b.Fetch(context.Background(), []rewire.NodeID{99}); !errors.Is(err, rewire.ErrNoSuchUser) {
		t.Fatalf("err = %v, want ErrNoSuchUser", err)
	}
	if c := fb.calls.Load(); c != 1 {
		t.Fatalf("inner saw %d calls, want 1", c)
	}
}

func TestWithRetryExhaustsAttempts(t *testing.T) {
	fb := newFakeBackend()
	fb.fails = 100
	b := rewire.WithRetry(fb, rewire.RetryOptions{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	if _, err := b.Fetch(context.Background(), []rewire.NodeID{0}); !errors.Is(err, fb.failErr) {
		t.Fatalf("err = %v, want wrapped inner error", err)
	}
	if c := fb.calls.Load(); c != 3 {
		t.Fatalf("inner saw %d calls, want 3", c)
	}
}

func TestWithRateLimitThrottlesAndHonorsContext(t *testing.T) {
	fb := newFakeBackend()
	b := rewire.WithRateLimit(fb, 50, 1) // 50/s, burst 1 → ~20ms spacing
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := b.Fetch(ctx, []rewire.NodeID{0}); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Fatalf("3 fetches at 50/s burst 1 took %v, want >= ~40ms", el)
	}
	// A blocked fetch returns promptly when cancelled.
	cctx, cancel := context.WithCancel(ctx)
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	if _, err := b.Fetch(cctx, []rewire.NodeID{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWithMetricsCounts(t *testing.T) {
	fb := newFakeBackend()
	var m rewire.BackendMetrics
	b := rewire.WithMetrics(fb, &m)
	b.Fetch(context.Background(), []rewire.NodeID{0, 1})
	b.Fetch(context.Background(), []rewire.NodeID{99}) // fails
	snap := m.Snapshot()
	if snap.Fetches != 2 || snap.IDs != 3 || snap.Failures != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestMiddlewareCompositionKeepsCapabilities proves capability probing
// follows the Unwrap chain through stacked middleware: a Provider over
// metrics(retry(ratelimit(backend))) still sees NumUsers and closes the
// inner backend.
func TestMiddlewareCompositionKeepsCapabilities(t *testing.T) {
	fb := newFakeBackend()
	var m rewire.BackendMetrics
	b := rewire.WithMetrics(rewire.WithRetry(rewire.WithRateLimit(fb, 10_000, 100), rewire.RetryOptions{MaxAttempts: 2, BaseDelay: time.Millisecond}), &m)
	p := rewire.BackendSource(b)
	defer p.Close()

	if n := p.NumUsers(); n != 4 {
		t.Fatalf("NumUsers through 3 wrappers = %d, want 4", n)
	}
	s, err := rewire.NewSession(p,
		rewire.WithAlgorithm(rewire.AlgSRW),
		rewire.WithSeed(2),
		rewire.WithPrefetch(rewire.PrefetchOptions{Strategy: rewire.PrefetchNextHop}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Samples(context.Background(), 30); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().Fetches == 0 {
		t.Fatal("metrics wrapper saw no fetches")
	}
	if err := p.Close(); err != nil || !fb.closed.Load() {
		t.Fatalf("Close did not traverse the middleware chain (err %v, closed %v)", err, fb.closed.Load())
	}
}

// TestCounterlessBackendNeedsStarts pins the documented workaround for
// backends without the UserCounter capability: WithStarts makes them
// sampleable (range validation deferred to the backend), no starts is a
// construction error, and Random Jump — which needs the ID space — is
// refused.
func TestCounterlessBackendNeedsStarts(t *testing.T) {
	fetchOnly := fetchOnlyBackend{newFakeBackend()}
	p := rewire.BackendSource(fetchOnly)
	if n := p.NumUsers(); n != 0 {
		t.Fatalf("NumUsers over a Fetch-only backend = %d, want 0", n)
	}
	if _, err := rewire.NewSession(p, rewire.WithAlgorithm(rewire.AlgSRW)); err == nil {
		t.Fatal("NewSession without starts over a counter-less backend succeeded")
	}
	if _, err := rewire.NewSession(p, rewire.WithAlgorithm(rewire.AlgRJ), rewire.WithStarts(0)); err == nil {
		t.Fatal("AlgRJ over a counter-less backend succeeded")
	}
	s, err := rewire.NewSession(p, rewire.WithAlgorithm(rewire.AlgSRW), rewire.WithStarts(0), rewire.WithSeed(1))
	if err != nil {
		t.Fatalf("NewSession with pinned starts: %v", err)
	}
	samples, err := s.Samples(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 20 {
		t.Fatalf("drew %d samples, want 20", len(samples))
	}
}

// TestProviderUserCountOutOfRange: node ids are int32, so a published user
// count outside [0, MaxInt32] ends Open (over /meta) and NewSession (over
// any other user counter) in an error, where it used to panic in
// SpreadStarts.
func TestProviderUserCountOutOfRange(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int64{-5, 1 << 62} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintf(w, `{"num_users":%d}`, n)
		}))
		_, err := rewire.Open(ctx, ts.URL+"?retries=1")
		ts.Close()
		var pe *httpsrc.ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("Open over num_users %d: %v, want a *httpsrc.ProtocolError", n, err)
		}

		fb := newFakeBackend()
		fb.users = int(n)
		if _, err := rewire.NewSession(rewire.BackendSource(fb), rewire.WithAlgorithm(rewire.AlgSRW)); err == nil {
			t.Fatalf("NewSession over a backend publishing %d users succeeded", n)
		}
	}
}

// fetchOnlyBackend exposes only the Fetch method of its inner backend.
type fetchOnlyBackend struct{ inner *fakeBackend }

func (f fetchOnlyBackend) Fetch(ctx context.Context, ids []rewire.NodeID) ([][]rewire.NodeID, error) {
	return f.inner.Fetch(ctx, ids)
}

// TestOpenSimMatchesSimulate pins the compatibility claim: Open("sim:...")
// and Simulate over the same graph and limits produce byte-identical
// trajectories, bills, and simulation telemetry.
func TestOpenSimMatchesSimulate(t *testing.T) {
	ctx := context.Background()
	g, err := rewire.SocialGraph(200, 800, 9)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *rewire.Provider) ([]rewire.Sample, int64, int64) {
		s, err := rewire.NewSession(p, rewire.WithAlgorithm(rewire.AlgMTO), rewire.WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		samples, err := s.Samples(ctx, 150)
		if err != nil {
			t.Fatal(err)
		}
		return samples, p.UniqueQueries(), p.TotalQueries()
	}
	legacy, legacyBill, legacyTotal := run(rewire.Simulate(g, rewire.FacebookLimits()))
	opened, err := rewire.Open(ctx, "sim:social?nodes=200&edges=800&seed=9&limits=facebook")
	if err != nil {
		t.Fatal(err)
	}
	driver, driverBill, driverTotal := run(opened)
	if !slices.Equal(legacy, driver) {
		t.Fatal("sim: driver trajectory diverged from Simulate")
	}
	if legacyBill != driverBill || legacyTotal != driverTotal {
		t.Fatalf("bills diverged: Simulate %d/%d, sim: %d/%d", legacyBill, legacyTotal, driverBill, driverTotal)
	}
	if opened.SimulatedElapsed() <= 0 {
		t.Fatal("sim: driver lost the simulated clock")
	}
}

// TestOpenHTTPRejectsBatchParams pins WithBatching as the one coalescer:
// a URL still carrying the retired batch or batchwait driver parameter
// fails Open with an error naming WithBatching, and so does a serving job
// naming it (400, no job created). Composed explicitly, the coalescer keeps
// the provider's X-RateLimit feedback reachable through Provider.RateLimit.
func TestOpenHTTPRejectsBatchParams(t *testing.T) {
	ctx := context.Background()
	g, err := rewire.SocialGraph(60, 240, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpsrc.Handler(g, httpsrc.ServerOptions{QueriesPerWindow: 1000, Window: time.Minute}))
	defer srv.Close()

	retired := []string{srv.URL + "?timeout=5s&batch=8", srv.URL + "?batchwait=1ms"}
	for _, u := range retired {
		if _, err := rewire.OpenBackend(ctx, u); err == nil || !strings.Contains(err.Error(), "WithBatching") {
			t.Errorf("OpenBackend(%q) = %v, want an error naming WithBatching", u, err)
		}
	}

	plain, err := rewire.OpenBackend(ctx, srv.URL+"?timeout=5s")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rewire.BackendAs[rewire.BatchStatser](plain); ok {
		t.Fatal("the driver attached a coalescer of its own")
	}
	be := rewire.WithBatching(plain, rewire.BatchingOptions{MaxBatch: 8, MaxWait: time.Millisecond})
	p := rewire.BackendSource(be)
	defer p.Close()
	if _, err := be.Fetch(ctx, []rewire.NodeID{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if rl, ok := p.RateLimit(); !ok || rl.Limit != 1000 {
		t.Errorf("RateLimit through WithBatching = %+v, %v; want Limit 1000", rl, ok)
	}

	daemon := serve.New(ctx, serve.Options{})
	defer daemon.Close()
	api := httptest.NewServer(daemon.Handler())
	defer api.Close()
	for _, u := range retired {
		body, err := json.Marshal(serve.JobSpec{Backend: u, Samples: 10})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(api.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /v1/jobs over %q answered %d, want 400", u, resp.StatusCode)
		}
	}
	resp, err := http.Get(api.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("rejected submissions created %d jobs", len(list.Jobs))
	}
}
