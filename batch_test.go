package rewire

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rewire/internal/gen"
	"rewire/internal/httpsrc"
	"rewire/internal/osn"
)

// ringBackend is the coalescer tests' inner backend: a ring graph with
// instrumented Fetch (call log, concurrency high-water mark, an optional
// gate that holds every call until released, an optional per-call delay).
type ringBackend struct {
	n     int
	gate  chan struct{} // non-nil: each Fetch receives once before answering
	delay time.Duration

	mu       sync.Mutex
	calls    [][]NodeID
	inflight int
	maxInfl  int
}

func (f *ringBackend) neighbors(v NodeID) []NodeID {
	n := NodeID(f.n)
	return []NodeID{(v + 1) % n, (v + n - 1) % n}
}

func (f *ringBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	f.mu.Lock()
	f.calls = append(f.calls, slices.Clone(ids))
	f.inflight++
	if f.inflight > f.maxInfl {
		f.maxInfl = f.inflight
	}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.inflight--
		f.mu.Unlock()
	}()
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out := make([][]NodeID, len(ids))
	for i, v := range ids {
		if v < 0 || int(v) >= f.n {
			return nil, fmt.Errorf("%w: id %d", ErrNoSuchUser, v)
		}
		out[i] = f.neighbors(v)
	}
	return out, nil
}

func (f *ringBackend) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func batchStats(t *testing.T, b Backend) BatchStats {
	t.Helper()
	bs, ok := BackendAs[BatchStatser](b)
	if !ok {
		t.Fatal("WithBatching backend does not expose BatchStats")
	}
	return bs.BatchStats()
}

// TestBatchingIdleDispatchesImmediately pins the zero-added-latency
// guarantee: a lone demand on an idle dispatcher goes straight to the wire,
// no window wait.
func TestBatchingIdleDispatchesImmediately(t *testing.T) {
	inner := &ringBackend{n: 64}
	// An hour-long MaxWait: if the idle path waited on the timer at all, the
	// test would hang instead of pass.
	b := WithBatching(inner, BatchingOptions{MaxWait: time.Hour})
	lists, err := b.Fetch(context.Background(), []NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lists[0], inner.neighbors(7)) {
		t.Fatalf("lists[0] = %v, want %v", lists[0], inner.neighbors(7))
	}
	st := batchStats(t, b)
	if st.Batches != 1 || st.FlushIdle != 1 || st.IDs != 1 {
		t.Fatalf("stats = %+v, want one idle-flushed single-id batch", st)
	}
}

// TestBatchingCoalescesConcurrentDemand is the tentpole's core property:
// k concurrent single-id misses become far fewer backend round-trips, each
// caller still getting exactly its own answer.
func TestBatchingCoalescesConcurrentDemand(t *testing.T) {
	const k = 32
	inner := &ringBackend{n: 256, delay: 2 * time.Millisecond}
	b := WithBatching(inner, BatchingOptions{MaxBatch: 16, MaxWait: time.Millisecond, MaxInflight: 2})
	var wg sync.WaitGroup
	errc := make(chan error, k)
	for i := range k {
		wg.Add(1)
		go func(v NodeID) {
			defer wg.Done()
			lists, err := b.Fetch(context.Background(), []NodeID{v})
			if err != nil {
				errc <- err
				return
			}
			if !slices.Equal(lists[0], inner.neighbors(v)) {
				errc <- fmt.Errorf("id %d: got %v", v, lists[0])
			}
		}(NodeID(i * 3))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := batchStats(t, b)
	if st.IDs != k {
		t.Fatalf("dispatched %d ids, want %d", st.IDs, k)
	}
	if got := inner.callCount(); got >= k {
		t.Fatalf("%d concurrent misses produced %d round-trips — no coalescing", k, got)
	}
	if int64(inner.callCount()) != st.Batches {
		t.Fatalf("stats claim %d batches, backend saw %d", st.Batches, inner.callCount())
	}
}

// TestBatchingOversizedFetchChunksInOrder: a caller batch far over MaxBatch
// is chunked, capped at MaxInflight concurrent dispatches, and reassembled
// in input order.
func TestBatchingOversizedFetchChunksInOrder(t *testing.T) {
	inner := &ringBackend{n: 512, delay: time.Millisecond}
	b := WithBatching(inner, BatchingOptions{MaxBatch: 8, MaxWait: time.Millisecond, MaxInflight: 3})
	ids := make([]NodeID, 100)
	for i := range ids {
		ids[i] = NodeID((i * 5) % 512)
	}
	lists, err := b.Fetch(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ids {
		if !slices.Equal(lists[i], inner.neighbors(v)) {
			t.Fatalf("lists[%d] (id %d) = %v, want %v", i, v, lists[i], inner.neighbors(v))
		}
	}
	inner.mu.Lock()
	maxInfl := inner.maxInfl
	inner.mu.Unlock()
	if maxInfl > 3 {
		t.Fatalf("backend saw %d concurrent fetches, cap is 3", maxInfl)
	}
	if st := batchStats(t, b); st.FlushFull == 0 {
		t.Fatalf("stats = %+v, want full-window flushes for an oversized batch", st)
	}
}

// TestBatchingChunksToProviderLimit: the http driver sends each Fetch as
// one request, so WithBatching is the one chunker. Over a provider that
// rejects more than 3 ids per request, a bare 7-id Fetch fails in one
// request, and MaxBatch 3 resolves the same ids in ceil(7/3) = 3.
func TestBatchingChunksToProviderLimit(t *testing.T) {
	ctx := context.Background()
	g := Barbell(6)
	srv := httptest.NewServer(httpsrc.Handler(g, httpsrc.ServerOptions{MaxIDsPerRequest: 3}))
	defer srv.Close()
	be, err := OpenBackend(ctx, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	b := WithBatching(be, BatchingOptions{MaxBatch: 3, MaxWait: time.Millisecond})
	defer closeBackend(b)
	hs, ok := BackendAs[interface{ Stats() httpsrc.Stats }](b)
	if !ok {
		t.Fatal("http driver statistics not reachable through the stack")
	}
	ids := []NodeID{0, 1, 2, 3, 4, 5, 6}
	if _, err := be.Fetch(ctx, ids); err == nil {
		t.Fatal("a 7-id Fetch past the provider's 3-id limit succeeded")
	}
	if st := hs.Stats(); st.BatchPosts != 1 {
		t.Fatalf("a bare Fetch took %d requests, want 1", st.BatchPosts)
	}
	lists, err := b.Fetch(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ids {
		if !slices.Equal(lists[i], g.Neighbors(v)) {
			t.Fatalf("lists[%d] = %v, want %v", i, lists[i], g.Neighbors(v))
		}
	}
	if st := hs.Stats(); st.BatchPosts != 1+3 {
		t.Fatalf("the batched Fetch took %d requests, want 3", st.BatchPosts-1)
	}
}

// TestBatchingMaxWaitFlushesBehindInflight: while a dispatch is in flight,
// newly accumulated demand must not wait for it longer than MaxWait — the
// timer flushes the window alongside.
func TestBatchingMaxWaitFlushesBehindInflight(t *testing.T) {
	inner := &ringBackend{n: 64, gate: make(chan struct{})}
	b := WithBatching(inner, BatchingOptions{MaxBatch: 16, MaxWait: 5 * time.Millisecond, MaxInflight: 4})

	first := make(chan error, 1)
	go func() {
		_, err := b.Fetch(context.Background(), []NodeID{1})
		first <- err
	}()
	// Wait until the first demand is on the wire (holding the gate).
	deadline := time.Now().Add(5 * time.Second)
	for inner.callCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first dispatch never reached the backend")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// The second demand lands in a non-idle window; only the MaxWait timer
	// can flush it while the first call blocks on the gate.
	done := make(chan error, 1)
	go func() {
		lists, err := b.Fetch(context.Background(), []NodeID{2})
		if err == nil && !slices.Equal(lists[0], inner.neighbors(2)) {
			err = fmt.Errorf("wrong answer %v", lists[0])
		}
		done <- err
	}()
	// Only the MaxWait timer can put the second batch on the wire while the
	// first still holds the gate; wait for that, then release both.
	deadline = time.Now().Add(5 * time.Second)
	for inner.callCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("timer never flushed the second demand")
		}
		time.Sleep(100 * time.Microsecond)
	}
	inner.gate <- struct{}{}
	inner.gate <- struct{}{}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second demand never flushed while first was in flight")
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if st := batchStats(t, b); st.FlushTimer == 0 {
		t.Fatalf("stats = %+v, want a timer flush", st)
	}
}

// TestBatchingDrainFlushesOnCompletion: demand accumulated behind a full
// MaxInflight pipeline is dispatched the moment a slot frees, without
// waiting out MaxWait.
func TestBatchingDrainFlushesOnCompletion(t *testing.T) {
	inner := &ringBackend{n: 64, gate: make(chan struct{})}
	// MaxWait far beyond the test timeout: only the completion drain can
	// flush the queued demand.
	b := WithBatching(inner, BatchingOptions{MaxBatch: 16, MaxWait: time.Hour, MaxInflight: 1})

	first := make(chan error, 1)
	go func() {
		_, err := b.Fetch(context.Background(), []NodeID{1})
		first <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for inner.callCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first dispatch never reached the backend")
		}
		time.Sleep(100 * time.Microsecond)
	}
	second := make(chan error, 1)
	go func() {
		_, err := b.Fetch(context.Background(), []NodeID{2, 3})
		second <- err
	}()
	// Give the second demand a moment to enqueue, then complete the first
	// fetch; the drain must dispatch the queued window.
	time.Sleep(2 * time.Millisecond)
	inner.gate <- struct{}{}
	inner.gate <- struct{}{}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued demand never drained after completion")
	}
	if st := batchStats(t, b); st.FlushDrain == 0 {
		t.Fatalf("stats = %+v, want a drain flush", st)
	}
}

// TestBatchingWithdrawCancelsAbandonedBatch: when every waiter of an
// in-flight batch cancels, the wire request itself is cancelled; the waiters
// get their context error.
func TestBatchingWithdrawCancelsAbandonedBatch(t *testing.T) {
	inner := &ringBackend{n: 64, gate: make(chan struct{})}
	b := WithBatching(inner, BatchingOptions{MaxWait: time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := b.Fetch(ctx, []NodeID{5})
		res <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for inner.callCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatch never reached the backend")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("Fetch err = %v, want context.Canceled", err)
	}
	// The backend's blocked call must observe the batch context dying — the
	// gate is never released, so only cancellation can unblock it.
	deadline = time.Now().Add(5 * time.Second)
	for {
		inner.mu.Lock()
		infl := inner.inflight
		inner.mu.Unlock()
		if infl == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned batch was never cancelled on the wire")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if st := batchStats(t, b); st.Withdrawn != 1 {
		t.Fatalf("stats = %+v, want Withdrawn = 1", st)
	}
}

// TestBatchingWithdrawLeavesWindow: cancelling a demand still in the window
// removes it — the next flush must not carry the withdrawn id.
func TestBatchingWithdrawLeavesWindow(t *testing.T) {
	inner := &ringBackend{n: 64, gate: make(chan struct{})}
	b := WithBatching(inner, BatchingOptions{MaxBatch: 16, MaxWait: time.Hour, MaxInflight: 1})

	first := make(chan error, 1)
	go func() {
		_, err := b.Fetch(context.Background(), []NodeID{1})
		first <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for inner.callCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first dispatch never reached the backend")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Queue a demand behind the busy pipeline, then cancel it while it still
	// sits in the window.
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := b.Fetch(ctx, []NodeID{9})
		queued <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued Fetch err = %v, want context.Canceled", err)
	}
	inner.gate <- struct{}{}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	// Nothing remains to dispatch: the withdrawn id must never hit the wire.
	time.Sleep(5 * time.Millisecond)
	inner.mu.Lock()
	calls := slices.Clone(inner.calls)
	inner.mu.Unlock()
	for _, call := range calls {
		if slices.Contains(call, 9) {
			t.Fatalf("withdrawn id 9 reached the backend: %v", calls)
		}
	}
}

// TestBatchingFallbackIsolatesUnknownID: the inner backend has no per-id
// results and fails whole batches with ErrNoSuchUser; a stranger
// coalesced with the bad id must still get its answer, and the demander of
// the bad id exactly its error.
func TestBatchingFallbackIsolatesUnknownID(t *testing.T) {
	inner := &ringBackend{n: 64, gate: make(chan struct{})}
	b := WithBatching(inner, BatchingOptions{MaxBatch: 16, MaxWait: time.Hour, MaxInflight: 1})

	// Occupy the single dispatch slot so the next two demands coalesce.
	first := make(chan error, 1)
	go func() {
		_, err := b.Fetch(context.Background(), []NodeID{1})
		first <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for inner.callCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first dispatch never reached the backend")
		}
		time.Sleep(100 * time.Microsecond)
	}
	good := make(chan error, 1)
	bad := make(chan error, 1)
	go func() {
		lists, err := b.Fetch(context.Background(), []NodeID{3})
		if err == nil && !slices.Equal(lists[0], inner.neighbors(3)) {
			err = fmt.Errorf("wrong answer %v", lists[0])
		}
		good <- err
	}()
	go func() {
		_, err := b.Fetch(context.Background(), []NodeID{999})
		bad <- err
	}()
	// Wait for both to coalesce into the window, then release the pipeline.
	waitPending(t, b, 2)
	close(inner.gate) // every later fetch passes straight through
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-good; err != nil {
		t.Fatalf("stranger coalesced with a bad id got %v, want its answer", err)
	}
	if err := <-bad; !errors.Is(err, ErrNoSuchUser) {
		t.Fatalf("bad id err = %v, want ErrNoSuchUser", err)
	}
}

// waitPending spins until the dispatcher's window holds n ids.
func waitPending(t *testing.T, b Backend, n int) {
	t.Helper()
	c, ok := b.(*batchingBackend)
	if !ok {
		t.Fatal("not a batching backend")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		pending := len(c.pending)
		c.mu.Unlock()
		if pending >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("window never reached %d pending ids", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// idRing answers per id: an unknown id comes back as its own entry in an
// *IDErrors while the rest of the batch resolves.
type idRing struct {
	ringBackend
	fetches atomic.Int64
}

func (p *idRing) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	p.fetches.Add(1)
	lists := make([][]NodeID, len(ids))
	var errs []error
	for i, v := range ids {
		if v < 0 || int(v) >= p.n {
			if errs == nil {
				errs = make([]error, len(ids))
			}
			errs[i] = fmt.Errorf("%w: id %d", ErrNoSuchUser, v)
			continue
		}
		lists[i] = p.neighbors(v)
	}
	if errs != nil {
		return lists, &IDErrors{Errs: errs}
	}
	return lists, nil
}

// TestBatchingUsesIDErrors: a backend answering with an *IDErrors resolves a
// mixed good/bad batch in one round-trip — the single-id re-fetch fallback
// never runs.
func TestBatchingUsesIDErrors(t *testing.T) {
	inner := &idRing{ringBackend: ringBackend{n: 64}}
	b := WithBatching(inner, BatchingOptions{})
	if _, err := b.Fetch(context.Background(), []NodeID{2, 999}); !errors.Is(err, ErrNoSuchUser) {
		t.Fatalf("err = %v, want ErrNoSuchUser", err)
	}
	if got := inner.fetches.Load(); got != 1 {
		t.Fatalf("mixed batch took %d round-trips, want 1", got)
	}
	lists, err := b.Fetch(context.Background(), []NodeID{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lists[1], inner.neighbors(3)) {
		t.Fatalf("lists[1] = %v, want %v", lists[1], inner.neighbors(3))
	}
}

// TestBatchingIsolatesIDErrorsThroughMiddleware runs per-id isolation through
// the stack the serving daemon builds over the http driver:
// WithBatching(WithRateLimit(WithMetrics(OpenBackend(url)))). One known and
// one unknown id from two demanders share one window, one POST, and one
// metered fetch that is not a failure; each demander gets its own answer.
func TestBatchingIsolatesIDErrorsThroughMiddleware(t *testing.T) {
	ctx := context.Background()
	g := Barbell(5)
	srv := httptest.NewServer(httpsrc.Handler(g, httpsrc.ServerOptions{}))
	defer srv.Close()
	be, err := OpenBackend(ctx, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var m BackendMetrics
	b := WithBatching(WithRateLimit(WithMetrics(be, &m), 1000, 10), BatchingOptions{MaxWait: time.Hour, MaxInflight: 1})
	defer closeBackend(b)

	// Hold the only dispatch slot so both demands queue in one window, then
	// release it: the completion drain sends them together.
	c := b.(*batchingBackend)
	c.mu.Lock()
	c.inflight++
	c.mu.Unlock()
	good := make(chan error, 1)
	bad := make(chan error, 1)
	go func() {
		lists, err := b.Fetch(ctx, []NodeID{1})
		if err == nil && !slices.Equal(lists[0], g.Neighbors(1)) {
			err = fmt.Errorf("wrong answer %v", lists[0])
		}
		good <- err
	}()
	go func() {
		_, err := b.Fetch(ctx, []NodeID{999})
		bad <- err
	}()
	waitPending(t, b, 2)
	c.finish()
	if err := <-good; err != nil {
		t.Fatalf("known id coalesced with an unknown one got %v, want its answer", err)
	}
	if err := <-bad; !errors.Is(err, ErrNoSuchUser) {
		t.Fatalf("unknown id err = %v, want ErrNoSuchUser", err)
	}
	hs, ok := BackendAs[interface{ Stats() httpsrc.Stats }](b)
	if !ok {
		t.Fatal("http driver statistics not reachable through the stack")
	}
	if st := hs.Stats(); st.BatchPosts != 1 || st.Gets != 0 {
		t.Fatalf("wire stats = %+v, want exactly one POST /neighbors/batch", st)
	}
	if snap := m.Snapshot(); snap.Fetches != 1 || snap.Failures != 0 || snap.IDs != 2 {
		t.Fatalf("metrics = %+v, want one 2-id fetch and no failures", snap)
	}
}

// TestBatchingRaceHammer drives the full client stack — demand queries,
// cancellation, tenant billing, and the speculative prefetch pool — through
// one coalescing window under -race, then checks the ledger invariants the
// paper's cost model depends on: every cached list is billed exactly
// once or parked speculative, and per-tenant bills sum to the total.
func TestBatchingRaceHammer(t *testing.T) {
	const (
		nodes   = 128
		workers = 8
		queries = 120
	)
	inner := &ringBackend{n: nodes, delay: 200 * time.Microsecond}
	bb := WithBatching(inner, BatchingOptions{MaxBatch: 8, MaxWait: 500 * time.Microsecond, MaxInflight: 4})
	client := osn.NewPrefetchingClient(bb, osn.PrefetchConfig{Workers: 4, Depth: 1})
	defer client.StopPrefetch()

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			ctx := osn.WithTenant(context.Background(), fmt.Sprintf("tenant-%d", w%3))
			for q := range queries {
				id := NodeID(rng.IntN(nodes))
				switch q % 4 {
				case 0:
					// Demand with a racing cancellation: sometimes the answer
					// lands first, sometimes the withdrawal does.
					cctx, cancel := context.WithTimeout(ctx, time.Duration(rng.IntN(300))*time.Microsecond)
					_, err := client.NeighborsContext(cctx, id)
					cancel()
					if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
						errc <- fmt.Errorf("worker %d: cancelled query: %v", w, err)
						return
					}
				case 1:
					// Speculative prefetch racing the demand path (upgrade).
					client.Prefetch(id, NodeID(rng.IntN(nodes)))
					fallthrough
				default:
					// Coalesced waiters share the driving fetch's fate, errors
					// included (singleflight semantics): a context error not
					// our own means the first demander bailed — retry.
					var nbrs []NodeID
					var err error
					for range 50 {
						nbrs, err = client.NeighborsContext(ctx, id)
						if err == nil || (!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)) {
							break
						}
					}
					if err != nil {
						errc <- fmt.Errorf("worker %d: query %d: %v", w, id, err)
						return
					}
					want := inner.neighbors(id)
					if !slices.Equal(nbrs, want) {
						errc <- fmt.Errorf("worker %d: id %d got %v want %v", w, id, nbrs, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	client.StopPrefetch()

	unique, spec, cached := client.UniqueQueries(), client.SpeculativeCount(), int64(client.CacheSize())
	if unique+spec != cached {
		t.Fatalf("billing drift: unique %d + speculative %d != cached %d", unique, spec, cached)
	}
	var tenantSum int64
	for name, bill := range client.TenantBills() {
		if bill.Unique < 0 || bill.Reserved != 0 {
			t.Fatalf("tenant %s: bill %+v after quiescence", name, bill)
		}
		tenantSum += bill.Unique
	}
	if tenantSum != unique {
		t.Fatalf("tenant bills sum to %d, client-wide unique is %d", tenantSum, unique)
	}
	st := batchStats(t, bb)
	if st.Batches == 0 || st.IDs < st.Batches {
		t.Fatalf("implausible dispatch stats %+v", st)
	}
}

// dispatcherState reads the dispatcher's in-flight and owed counts.
func dispatcherState(b Backend) (inflight, owed int) {
	c := b.(*batchingBackend)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight, c.owedLocked()
}

// TestBatchingClosedLoopOneTripPerRound: a fleet whose members are
// released together by one completion must ride the next round trip
// together. A drain that left before the released callers came back would
// split the fleet into two alternating cohorts, about two backend calls
// per round.
func TestBatchingClosedLoopOneTripPerRound(t *testing.T) {
	const walkers, rounds = 16, 20
	inner := &ringBackend{n: walkers * rounds, delay: time.Millisecond}
	// A MaxWait well past the round trip keeps the timer from splitting the
	// fleet when a round runs late on a loaded machine.
	b := WithBatching(inner, BatchingOptions{MaxWait: 20 * time.Millisecond})
	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, walkers)
	for w := range walkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := range rounds {
				v := NodeID(w*rounds + r)
				lists, err := b.Fetch(context.Background(), []NodeID{v})
				if err == nil && !slices.Equal(lists[0], inner.neighbors(v)) {
					err = fmt.Errorf("id %d: got %v", v, lists[0])
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	calls := inner.callCount()
	t.Logf("%d backend calls over %d rounds, stats %+v", calls, rounds, batchStats(t, b))
	if per := float64(calls) / rounds; per > 1.25 {
		t.Fatalf("%d walkers x %d rounds took %d backend calls, %.2f per round; want at most 1.25",
			walkers, rounds, calls, per)
	}
}

// TestBatchingLoneCallerNeverHeld: a lone caller pays its own place in the
// next batch, so each of its sequential Fetches dispatches at once from an
// idle dispatcher — never by the timer or a held drain.
func TestBatchingLoneCallerNeverHeld(t *testing.T) {
	inner := &ringBackend{n: 64, delay: 100 * time.Microsecond}
	b := WithBatching(inner, BatchingOptions{MaxWait: time.Hour})
	for i := range 50 {
		if _, err := b.Fetch(context.Background(), []NodeID{NodeID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := batchStats(t, b); st.Batches != 50 || st.FlushIdle != 50 {
		t.Fatalf("stats = %+v, want 50 idle-flushed batches", st)
	}
}

// TestBatchingHoldBoundedByRoundTrip: a released caller that never comes
// back holds the window only for a fraction of a round trip, not MaxWait.
// The second caller queues behind the first's flight; the first returns and
// goes away, and the second must still dispatch within a few round trips.
func TestBatchingHoldBoundedByRoundTrip(t *testing.T) {
	const rtt = 5 * time.Millisecond
	inner := &ringBackend{n: 64, delay: rtt}
	b := WithBatching(inner, BatchingOptions{MaxWait: time.Hour})
	first := make(chan error, 1)
	go func() {
		_, err := b.Fetch(context.Background(), []NodeID{1})
		first <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for inner.callCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first dispatch never reached the backend")
		}
		time.Sleep(100 * time.Microsecond)
	}
	second := make(chan error, 1)
	go func() {
		_, err := b.Fetch(context.Background(), []NodeID{2})
		second <- err
	}()
	waitPending(t, b, 1)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	released := time.Now()
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * rtt):
		t.Fatalf("second caller still waiting %v after the first was released; the hold must end within a round trip", 20*rtt)
	}
	if st := batchStats(t, b); st.FlushDrain != 1 || st.FlushTimer != 0 {
		t.Fatalf("stats = %+v, want the held window drained once, no timer flush (%v after release)", st, time.Since(released))
	}
}

// blockOne is a backend that answers every id at once except block, whose
// fetch waits for its context to end.
type blockOne struct {
	ringBackend
	block NodeID
}

func (p *blockOne) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	if slices.Contains(ids, p.block) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return p.ringBackend.Fetch(ctx, ids)
}

// TestBatchingWithdrawSkipsResolvedSlots: a caller cancelled after part of
// its ids resolved withdraws only the unresolved ones, and its release is
// owed nothing: the next lone Fetch dispatches at once from an idle
// dispatcher.
func TestBatchingWithdrawSkipsResolvedSlots(t *testing.T) {
	// A slow round trip keeps the hold a wrongly owed call would arm (a
	// quarter of it) long enough to observe.
	inner := &blockOne{ringBackend: ringBackend{n: 64, delay: 100 * time.Millisecond}, block: 1}
	// MaxBatch 2 splits the call into dispatches [1 2] and [3 4].
	b := WithBatching(inner, BatchingOptions{MaxBatch: 2, MaxWait: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := b.Fetch(ctx, []NodeID{1, 2, 3, 4})
		res <- err
	}()
	// Wait until [3 4] has completed and [1 2] alone is in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		inflight, _ := dispatcherState(b)
		if inner.callCount() == 1 && inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ids 3 and 4 never resolved")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("Fetch err = %v, want context.Canceled", err)
	}
	for {
		inflight, owed := dispatcherState(b)
		if inflight == 0 {
			if owed != 0 {
				t.Fatalf("a withdrawn call is owed %d places", owed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("withdrawn dispatch never completed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if st := batchStats(t, b); st.Withdrawn != 2 {
		t.Fatalf("stats = %+v, want Withdrawn = 2: ids 3 and 4 had already resolved", st)
	}
	if _, err := b.Fetch(context.Background(), []NodeID{5}); err != nil {
		t.Fatal(err)
	}
	if st := batchStats(t, b); st.Batches != 3 || st.FlushFull != 2 || st.FlushIdle != 1 {
		t.Fatalf("stats = %+v, want the lone Fetch idle-flushed", st)
	}
}

// slowBackend answers from a graph after a fixed round trip per Fetch.
type slowBackend struct {
	graphBackend
	delay time.Duration
}

func (b slowBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	t := time.NewTimer(b.delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.graphBackend.Fetch(ctx, ids)
}

// longHold seeds the dispatcher's round-trip average with an hour, so that
// under an hour-long MaxWait its holds last minutes and a test can watch the
// places owed without a hold expiring under it.
func longHold(b Backend) {
	c := b.(*batchingBackend)
	c.mu.Lock()
	c.rtt = time.Hour
	c.mu.Unlock()
}

// owes reports whether the dispatcher holds a place for seat s.
func owes(b Backend, s *osn.Seat) bool {
	c := b.(*batchingBackend)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.owing[s]
	return ok
}

// TestBatchingMemberExitReleasesHold: a partitioned fleet over a slow
// backend never waits out a hold. The session's connectivity check is owed
// nothing, each member that retires leaves its seat, and a miss that joins a
// sibling's fetch pays its place, so every hold ends when the last member
// it was kept for comes back or leaves.
func TestBatchingMemberExitReleasesHold(t *testing.T) {
	inner := slowBackend{graphBackend: graphBackend{g: gen.Cycle(40)}, delay: 20 * time.Millisecond}
	b := WithBatching(inner, BatchingOptions{MaxWait: time.Hour})
	sess, err := NewSession(BackendSource(b), WithAlgorithm(AlgSRW), WithFleet(4),
		WithPartitionedBudget(true), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// Shares of unequal length (7 and 6 samples) retire members in two
	// rounds.
	for run := range 2 {
		if _, err := sess.Samples(context.Background(), 26); err != nil {
			t.Fatal(err)
		}
		if n := BatchHoldsExpired(b); n != 0 {
			t.Fatalf("run %d: %d holds waited out their timer, stats %+v", run, n, batchStats(t, b))
		}
	}
	if _, owed := dispatcherState(b); owed != 0 {
		t.Fatalf("%d places still owed after every member retired", owed)
	}
}

// TestBatchingEstimateHoldsNoMember: Session.Estimate steps every member on
// one goroutine, so the member a completion released comes back only after
// its siblings have stepped. Its queries are one caller's: a hold kept for
// one member would wait out its timer on every step.
func TestBatchingEstimateHoldsNoMember(t *testing.T) {
	inner := slowBackend{graphBackend: graphBackend{g: gen.Cycle(40)}, delay: 20 * time.Millisecond}
	b := WithBatching(inner, BatchingOptions{MaxWait: time.Hour})
	sess, err := NewSession(BackendSource(b), WithAlgorithm(AlgMHRW), WithFleet(4), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Estimate(context.Background(), AvgDegree(), EstimateOptions{Samples: 12}); err != nil {
		t.Fatal(err)
	}
	// The last step's release is owed until its timer, which nothing waits
	// on; any other expiry is a step that waited.
	if n := BatchHoldsExpired(b); n > 1 {
		t.Fatalf("%d holds waited out their timer over 12 round-robin steps, stats %+v", n, batchStats(t, b))
	}
}

// TestBatchingJoinedDemandPaysPlace: a seated caller whose next miss joins
// a fetch already in flight never reaches the dispatcher, so it pays its
// place at once and the window held for it goes without waiting out the
// hold.
func TestBatchingJoinedDemandPaysPlace(t *testing.T) {
	inner := &ringBackend{n: 64}
	b := WithBatching(inner, BatchingOptions{MaxWait: time.Hour})
	longHold(b)
	client := osn.NewClient(b)
	a, other := osn.NewSeat(), osn.NewSeat()
	ctxA, ctxOther := a.Tag(context.Background()), other.Tag(context.Background())
	if _, err := client.NeighborsContext(ctxA, 1); err != nil {
		t.Fatal(err)
	}
	if !owes(b, a) {
		t.Fatal("a released seat is owed no place")
	}
	// The other caller's miss waits in the window held for a.
	res := make(chan error, 2)
	go func() {
		_, err := client.NeighborsContext(ctxOther, 2)
		res <- err
	}()
	waitPending(t, b, 1)
	// a's next miss is the same id: it joins that fetch.
	go func() {
		_, err := client.NeighborsContext(ctxA, 2)
		res <- err
	}()
	for range 2 {
		select {
		case err := <-res:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("a joined demand kept the window held; stats %+v", batchStats(t, b))
		}
	}
	if st := batchStats(t, b); st.Batches != 2 || st.FlushDrain != 1 || BatchHoldsExpired(b) != 0 {
		t.Fatalf("stats = %+v, %d expired holds; want the held window drained once, by the join", st, BatchHoldsExpired(b))
	}
	if owes(b, a) || !owes(b, other) {
		t.Fatal("after the drain, want the fetching caller owed a place and the joined one not")
	}
}

// TestBatchingPrefetchNeverOwed: the prefetch pool's fetches and
// QueryBatchContext's one-shot fetches release nobody who comes back, so
// no place is owed for them and the next demand dispatches at once.
func TestBatchingPrefetchNeverOwed(t *testing.T) {
	inner := &ringBackend{n: 64}
	b := WithBatching(inner, BatchingOptions{MaxWait: time.Hour})
	longHold(b)
	client := osn.NewPrefetchingClient(b, osn.PrefetchConfig{Workers: 1})
	defer client.StopPrefetch()
	if client.Prefetch(5) != 1 {
		t.Fatal("hint refused")
	}
	deadline := time.Now().Add(5 * time.Second)
	for client.PrefetchStats().Fetched != 1 {
		if time.Now().After(deadline) {
			t.Fatal("speculative fetch never completed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, owed := dispatcherState(b); owed != 0 {
		t.Fatalf("a speculative fetch is owed %d places", owed)
	}
	if _, err := client.QueryBatchContext(context.Background(), []NodeID{6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if _, owed := dispatcherState(b); owed != 0 {
		t.Fatalf("one-shot batch fetches are owed %d places", owed)
	}
	seat := osn.NewSeat()
	if _, err := client.NeighborsContext(seat.Tag(context.Background()), 9); err != nil {
		t.Fatal(err)
	}
	if st := batchStats(t, b); st.FlushIdle < 2 || st.FlushDrain+st.FlushIdle != st.Batches || BatchHoldsExpired(b) != 0 {
		t.Fatalf("stats = %+v, %d expired holds; want every dispatch idle or drained, none held", st, BatchHoldsExpired(b))
	}
}

// TestBatchingStrayLeaveKeepsOwed: a leave pays only a place its own seat
// is owed in the current hold. A seat never released, a seat leaving twice,
// and a seat whose place an expired hold already forgave change nothing.
func TestBatchingStrayLeaveKeepsOwed(t *testing.T) {
	inner := &ringBackend{n: 64}
	b := WithBatching(inner, BatchingOptions{MaxWait: time.Hour})
	c := b.(*batchingBackend)
	longHold(b)
	a, other, stray := osn.NewSeat(), osn.NewSeat(), osn.NewSeat()
	fetch := func(s *osn.Seat, v NodeID) {
		t.Helper()
		if _, err := b.Fetch(s.Tag(context.Background()), []NodeID{v}); err != nil {
			t.Fatal(err)
		}
	}
	owed := func(want int, what string) {
		t.Helper()
		if _, got := dispatcherState(b); got != want {
			t.Fatalf("%s: %d places owed, want %d", what, got, want)
		}
	}
	fetch(a, 1)
	owed(1, "a released")
	// other waits in the window held for a; a's return drains both.
	done := make(chan struct{})
	go func() {
		defer close(done)
		fetch(other, 2)
	}()
	waitPending(t, b, 1)
	fetch(a, 3)
	<-done
	owed(2, "a and other released together")
	stray.Leave()
	c.Vacate(stray)
	owed(2, "a stray seat left")
	a.Leave()
	owed(1, "a left")
	a.Leave()
	c.Vacate(a)
	owed(1, "a left again")
	// Expire the hold: other's place is forgiven, and its later leave must
	// not pay a place in the next hold.
	c.mu.Lock()
	gen := c.holdGen
	c.mu.Unlock()
	c.holdFire(gen)
	owed(0, "the hold expired")
	fetch(a, 4)
	owed(1, "a released again")
	other.Leave()
	owed(1, "other left after its hold expired")
	if !owes(b, a) {
		t.Fatal("the late leave paid a's place")
	}
}
