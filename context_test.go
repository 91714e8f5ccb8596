package rewire_test

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"rewire"
)

// billingExact asserts the cost-ledger invariant that must survive any mix
// of cancellation, speculation, and coalescing: every locally stored
// response is either billed exactly once (demanded) or parked speculative —
// never both, never neither — and the provider served at least as many
// requests as the ledger claims.
func billingExact(t *testing.T, p *rewire.Provider) {
	t.Helper()
	unique, spec, cached := p.UniqueQueries(), p.PrefetchStats().Unused, int64(p.CacheSize())
	if unique+spec != cached {
		t.Fatalf("billing drift: unique %d + speculative %d != cached %d", unique, spec, cached)
	}
	if total := p.TotalQueries(); total < unique+spec {
		t.Fatalf("ledger claims %d+%d responses but provider served only %d", unique, spec, total)
	}
}

// TestDeadlineAbortsFleetWalk is the acceptance test for the context
// tentpole: a deadline must abort a fleet walk mid-round-trip — returning
// orders of magnitude before the uncancelled walk would finish — while
// UniqueQueries billing remains exact, and the session must resume cleanly.
func TestDeadlineAbortsFleetWalk(t *testing.T) {
	g, err := rewire.SocialGraph(800, 3200, 21)
	if err != nil {
		t.Fatal(err)
	}
	limits := rewire.Limits{RealLatency: 5 * time.Millisecond}
	p := rewire.Simulate(g, limits)
	s, err := rewire.NewSession(p, rewire.WithFleet(4), rewire.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}

	// With 5ms per cold round-trip, 100k samples over fresh territory would
	// take minutes; the 60ms deadline must cut that to roughly the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	begin := time.Now()
	got, err := s.Samples(ctx, 100000)
	elapsed := time.Since(begin)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(s.Err(), nil) {
		t.Fatal("session did not record the abort reason")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline-bound walk took %v to abort", elapsed)
	}
	if len(got) == 100000 {
		t.Fatal("walk completed despite the deadline")
	}
	billingExact(t, p)

	// Resumability: a fresh context continues from the held positions, and
	// already-paid-for topology is never re-billed.
	before := p.UniqueQueries()
	positions := s.Positions()
	more, err := s.Samples(context.Background(), 50)
	if err != nil {
		t.Fatalf("resume after deadline: %v", err)
	}
	if len(more) != 50 {
		t.Fatalf("resume drew %d samples, want 50", len(more))
	}
	billingExact(t, p)
	// Re-demanding the nodes the walkers sat on must be free: they were
	// demand-queried during the aborted run (or the resume's first steps).
	after := p.UniqueQueries()
	if _, err := p.QueryBatch(context.Background(), positions); err != nil {
		t.Fatal(err)
	}
	if p.UniqueQueries() != after {
		t.Fatalf("re-demanding held positions re-billed: %d -> %d", after, p.UniqueQueries())
	}
	if after < before {
		t.Fatalf("ledger went backwards: %d -> %d", before, after)
	}
}

// TestCancellationMidStream cancels a live stream from the consumer side and
// verifies the iterator terminates with the cancellation error promptly.
func TestCancellationMidStream(t *testing.T) {
	g, err := rewire.SocialGraph(500, 2000, 31)
	if err != nil {
		t.Fatal(err)
	}
	p := rewire.Simulate(g, rewire.Limits{RealLatency: 2 * time.Millisecond})
	s, err := rewire.NewSession(p, rewire.WithFleet(3), rewire.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sawErr error
	n := 0
	begin := time.Now()
	for smp, err := range s.Stream(ctx, 1000000) {
		_ = smp
		if err != nil {
			sawErr = err
			break
		}
		n++
		if n == 20 {
			cancel()
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("stream ended with %v, want context.Canceled", sawErr)
	}
	if elapsed := time.Since(begin); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
	billingExact(t, p)
}

// TestDeadlineDuringPrefetchExpansion puts a deadline in the middle of a
// deep speculative frontier expansion: the pool must stop spending provider
// quota once the context expires, and the speculative ledger must stay
// consistent — aborted speculative fetches cache nothing and bill nothing.
func TestDeadlineDuringPrefetchExpansion(t *testing.T) {
	g, err := rewire.SocialGraph(1200, 6000, 41)
	if err != nil {
		t.Fatal(err)
	}
	p := rewire.Simulate(g, rewire.Limits{RealLatency: 2 * time.Millisecond})
	s, err := rewire.NewSession(p,
		rewire.WithFleet(2),
		rewire.WithSeed(17),
		rewire.WithPrefetch(rewire.PrefetchOptions{
			Strategy: rewire.PrefetchFrontier,
			Workers:  8,
			Depth:    3, // deep recursive expansion: the frontier outruns the walk
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.Samples(ctx, 1000000); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	billingExact(t, p)
	servedAtAbort := p.TotalQueries()
	// The pool is stopped and its context expired: no speculative round-trip
	// may land after the abort settles.
	time.Sleep(20 * time.Millisecond)
	if now := p.TotalQueries(); now != servedAtAbort {
		t.Fatalf("provider served %d more requests after the aborted run settled", now-servedAtAbort)
	}
	billingExact(t, p)

	// The session still completes a small follow-up run (speculation is a
	// pure latency optimization — aborting it loses nothing).
	if _, err := s.Samples(context.Background(), 30); err != nil {
		t.Fatalf("resume after prefetch abort: %v", err)
	}
	billingExact(t, p)
}

// TestAbortBillingHammer is the -race hammer for exact billing: a fleet with
// deep speculation is cancelled at random points over many rounds — hitting
// walks between speculative fetch and demand consumption from every angle —
// and the ledger invariant must hold after every round, with cached
// responses never re-billed.
func TestAbortBillingHammer(t *testing.T) {
	g, err := rewire.SocialGraph(600, 2600, 51)
	if err != nil {
		t.Fatal(err)
	}
	p := rewire.Simulate(g, rewire.Limits{RealLatency: 300 * time.Microsecond})
	s, err := rewire.NewSession(p,
		rewire.WithFleet(8),
		rewire.WithSeed(23),
		rewire.WithPrefetch(rewire.PrefetchOptions{Strategy: rewire.PrefetchNextHop, Workers: 8, Depth: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(99))
	var aborted, clean atomic.Int64
	for round := 0; round < 15; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		if delay := rnd.Intn(4); delay > 0 {
			timer := time.AfterFunc(time.Duration(delay)*time.Millisecond, cancel)
			_, err := s.Samples(ctx, 300)
			timer.Stop()
			if err != nil {
				aborted.Add(1)
			} else {
				clean.Add(1)
			}
		} else {
			cancel() // already-dead context: the run must refuse instantly
			if _, err := s.Samples(ctx, 300); !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: pre-cancelled run returned %v", round, err)
			}
			ctx2, cancel2 := context.WithCancel(context.Background())
			if _, err := s.Samples(ctx2, 50); err != nil {
				t.Fatalf("round %d: recovery run failed: %v", round, err)
			}
			cancel2()
			clean.Add(1)
		}
		cancel()
		billingExact(t, p)
	}
	if aborted.Load() == 0 {
		t.Log("hammer note: no round aborted mid-walk (timing-dependent); invariants still exercised")
	}
	if clean.Load() == 0 {
		t.Fatal("hammer never completed a clean round")
	}
	// Exactness across the speculative boundary: demanding the walkers'
	// final positions may upgrade entries still parked speculative (a node
	// stepped to just before a cancel has been prefetched but not yet
	// demanded) — each billed exactly once — after which the same batch must
	// be entirely free.
	if _, err := p.QueryBatch(context.Background(), s.Positions()); err != nil {
		t.Fatal(err)
	}
	billingExact(t, p)
	before := p.UniqueQueries()
	if _, err := p.QueryBatch(context.Background(), s.Positions()); err != nil {
		t.Fatal(err)
	}
	if p.UniqueQueries() != before {
		t.Fatalf("second replay moved the ledger: %d -> %d", before, p.UniqueQueries())
	}
	billingExact(t, p)
}
