package osn

import (
	"context"
	"errors"
	"testing"
	"time"

	"rewire/internal/gen"
	"rewire/internal/graph"
)

// TestCancelledQueryBatchReturnsPromptly is the regression test for the
// RealLatency sleeps: a cancelled QueryBatch must return in roughly the
// cancellation delay, not after paying every outstanding round-trip.
func TestCancelledQueryBatchReturnsPromptly(t *testing.T) {
	g := gen.Complete(64)
	// 200ms per round-trip, 32 cold ids: an uninterruptible batch would sit
	// out at least one full 200ms round-trip (its misses overlap).
	svc := NewService(g, nil, Config{RealLatency: 200 * time.Millisecond})
	c := NewClient(svc)
	ids := make([]graph.NodeID, 32)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	begin := time.Now()
	_, err := c.QueryBatchContext(ctx, ids)
	elapsed := time.Since(begin)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed >= 150*time.Millisecond {
		t.Fatalf("cancelled batch took %v; the RealLatency sleep was not interrupted", elapsed)
	}
	// Aborted round-trips obtained no response: nothing cached, nothing
	// billed.
	if got := c.UniqueQueries(); got != 0 {
		t.Fatalf("aborted batch billed %d unique queries", got)
	}
	if got := c.CacheSize(); got != 0 {
		t.Fatalf("aborted batch cached %d responses", got)
	}
	// A fresh context retries the same ids successfully, each billed once.
	if _, err := c.QueryBatchContext(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	if got := c.UniqueQueries(); got != int64(len(ids)) {
		t.Fatalf("retry billed %d unique queries, want %d", got, len(ids))
	}
}

// TestQueryContextDeadlineOnColdMiss covers the single-query path.
func TestQueryContextDeadlineOnColdMiss(t *testing.T) {
	g := gen.Complete(8)
	svc := NewService(g, nil, Config{RealLatency: 150 * time.Millisecond})
	c := NewClient(svc)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	begin := time.Now()
	_, err := c.NeighborsContext(ctx, 3)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(begin); elapsed >= 100*time.Millisecond {
		t.Fatalf("deadline-bound query took %v", elapsed)
	}
	// Cache hits never consult the context: once paid, always served.
	if _, err := c.NeighborsContext(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	dead, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := c.NeighborsContext(dead, 3); err != nil {
		t.Fatalf("cache hit failed under dead context: %v", err)
	}
	if got := c.UniqueQueries(); got != 1 {
		t.Fatalf("billed %d unique queries, want 1", got)
	}
}

// TestAbortBetweenSpeculativeFetchAndDemand pins the billing rule the
// prefetch pipeline lives by: a walk aborted after a speculative fetch
// completes but before any demand consumes it leaves the response parked
// (unbilled), and the eventual demand bills it exactly once.
func TestAbortBetweenSpeculativeFetchAndDemand(t *testing.T) {
	g := gen.Complete(16)
	svc := NewService(g, nil, Config{})
	c := NewClient(svc)
	c.StartPrefetch(PrefetchConfig{Workers: 2})
	defer c.StopPrefetch()

	c.Prefetch(5)
	waitFor(t, func() bool { return c.SpeculativeCount() == 1 })
	if got := c.UniqueQueries(); got != 0 {
		t.Fatalf("speculative fetch billed %d unique queries", got)
	}

	// The "walk" aborts: its demand query runs under a dead context and
	// fails without touching the parked response.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.NeighborsContext(dead, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if u, s := c.UniqueQueries(), c.SpeculativeCount(); u != 0 || s != 1 {
		t.Fatalf("aborted demand disturbed the ledger: unique %d, speculative %d", u, s)
	}

	// The resumed walk demands it: billed exactly once, never again.
	if _, err := c.NeighborsContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if u, s := c.UniqueQueries(), c.SpeculativeCount(); u != 1 || s != 0 {
		t.Fatalf("demand consumption: unique %d, speculative %d; want 1, 0", u, s)
	}
	if _, err := c.NeighborsContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if got := c.UniqueQueries(); got != 1 {
		t.Fatalf("duplicate demand re-billed: %d", got)
	}
}

// TestCancelledWaiterWithdrawsDemand covers the coalescing path: a demand
// caller that gives up on someone else's in-flight speculative fetch must
// withdraw its demand, so the fetch commits speculative and is billed only
// when a later demand consumes it.
func TestCancelledWaiterWithdrawsDemand(t *testing.T) {
	g := gen.Complete(16)
	svc := NewService(g, nil, Config{RealLatency: 80 * time.Millisecond})
	c := NewClient(svc)
	c.StartPrefetch(PrefetchConfig{Workers: 1})
	defer c.StopPrefetch()

	c.Prefetch(7)
	waitFor(t, func() bool { return c.Known(7) }) // in flight (or done)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.NeighborsContext(ctx, 7)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter coalesce
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter returned %v", err)
	}
	// Let the speculative round-trip finish and commit.
	waitFor(t, func() bool { return c.SpeculativeCount() == 1 || c.UniqueQueries() == 1 })
	if u := c.UniqueQueries(); u != 0 {
		// The waiter may have won the race and consumed the response before
		// cancellation took effect; then exactly one bill is correct.
		if u != 1 {
			t.Fatalf("unique queries %d, want 0 (withdrawn) or 1 (consumed)", u)
		}
		return
	}
	if s := c.SpeculativeCount(); s != 1 {
		t.Fatalf("withdrawn fetch not parked speculative: %d", s)
	}
	if _, err := c.NeighborsContext(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	if u, s := c.UniqueQueries(), c.SpeculativeCount(); u != 1 || s != 0 {
		t.Fatalf("post-withdraw demand: unique %d, speculative %d; want 1, 0", u, s)
	}
}

// TestBudgetExhaustion covers the demand-budget sentinel.
func TestBudgetExhaustion(t *testing.T) {
	g := gen.Complete(32)
	svc := NewService(g, nil, Config{})
	c := NewClient(svc)
	c.SetBudget(3)
	for v := graph.NodeID(0); v < 3; v++ {
		if _, err := c.NeighborsContext(context.Background(), v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.NeighborsContext(context.Background(), 10); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("got %v, want ErrBudgetExhausted", err)
	}
	// Cached responses stay free past exhaustion.
	if _, err := c.NeighborsContext(context.Background(), 1); err != nil {
		t.Fatalf("cache hit failed after exhaustion: %v", err)
	}
	if got := c.UniqueQueries(); got != 3 {
		t.Fatalf("billed %d, want 3", got)
	}
	// Raising the budget resumes.
	c.SetBudget(4)
	if _, err := c.NeighborsContext(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if got := c.UniqueQueries(); got != 4 {
		t.Fatalf("billed %d, want 4", got)
	}
}
