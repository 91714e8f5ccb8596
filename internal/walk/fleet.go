package walk

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"rewire/internal/graph"
	"rewire/internal/rng"
)

// Sample is one node drawn by a fleet member, tagged with its provenance so
// downstream estimators can attribute, stratify, or de-bias per walker.
type Sample struct {
	// Walker is the index of the member that drew the sample.
	Walker int
	// Node is the walk position after the step.
	Node graph.NodeID
	// Weight is the member's stationary weight at Node.
	Weight float64
}

// Fleet runs k walkers on k goroutines against a shared Source, merging
// their sample streams through a channel. Each member advances on its own
// goroutine, and the members race to drain a shared sample budget — the
// "many random walks are faster than one" scheme (Alon et al.) executed the
// way the follow-up OSN-sampling work (Nazi et al.; Zhou et al.) argues it
// should be, with every walker sharing the discovered topology and the query
// budget of the common source. A caller that needs a deterministic
// one-goroutine schedule instead (estimate.RunSession) steps Members()
// round-robin itself, between runs.
//
// Each member's own state (position, RNG, rewiring bookkeeping) must be
// confined to one goroutine — Fleet guarantees that by never stepping a
// member from two goroutines. Anything the members share must be safe for
// concurrent use: osn.Client, osn.Service, and core.Overlay all are.
type Fleet struct {
	members []Walker
	// quiesced requests a step-boundary stop of the active run: members
	// finish (and deliver) their in-flight step, then retire before claiming
	// another sample. Unlike context cancellation — which can abort a member
	// mid-step, after its RNG stream advanced but before the sample was
	// emitted — a quiesced stop leaves every member's chain state exactly
	// consistent with the samples delivered, which is what makes a
	// checkpoint taken afterwards resume byte-identically. Reset at the
	// start of every run.
	quiesced atomic.Bool
}

// NewFleet wraps the given walkers (at least one; an empty fleet panics —
// a programmer error the public SDK's option validation rules out before
// construction).
func NewFleet(members ...Walker) *Fleet {
	if len(members) == 0 {
		panic("walk: NewFleet needs at least one walker")
	}
	return &Fleet{members: members}
}

// NewFleetSimple builds k SRW members over src with distinct starts and
// split RNG streams. src must be safe for concurrent use.
func NewFleetSimple(src Source, starts []graph.NodeID, r *rng.Rand) *Fleet {
	members := make([]Walker, len(starts))
	for i, s := range starts {
		members[i] = NewSimple(src, s, r.Split())
	}
	return NewFleet(members...)
}

// Members returns a copy of the member list; mutating it cannot reorder or
// drop the fleet's walkers. (The Walker values themselves are shared — they
// ARE the fleet's live state.)
func (f *Fleet) Members() []Walker { return slices.Clone(f.members) }

// StreamContext launches one goroutine per member and returns a channel
// carrying their merged samples, plus a stop function. The members race for
// a shared budget of total samples; the channel is closed once the budget is
// drained and every goroutine has exited. Arrival order is nondeterministic —
// that is the point — but each member's own subsequence is a faithful walk
// trajectory.
//
// A caller that stops consuming before the channel closes MUST call stop
// (idempotent, safe after normal completion too) — otherwise the walker
// goroutines would block forever on their next send. After stop, drain any
// buffered samples by ranging until the channel closes, or just drop the
// channel; the goroutines exit either way.
//
// When ctx is cancelled or its deadline expires, every member goroutine
// retires promptly — mid-claim, mid-send, and (when the shared source is
// context-aware, e.g. a Bound over an osn.Client) mid-round-trip — and the
// channel closes after the last one exits. A member whose walker reports a
// sticky failure (Walker.Err: cancellation surfaced by the source, budget
// exhaustion) during its step or its weight read retires without emitting
// the poisoned sample.
func (f *Fleet) StreamContext(ctx context.Context, total int) (samples <-chan Sample, stop func()) {
	var claimed int64
	return f.launch(ctx, func(int) bool {
		return atomic.AddInt64(&claimed, 1) <= int64(total)
	})
}

// StreamPartitionedContext is StreamContext with the budget split up front
// instead of raced for: member i draws exactly total/k samples (the first
// total%k members draw one more). Each member's trajectory then depends only
// on its own RNG stream, not on goroutine scheduling, so a partitioned run
// is reproducible sample-for-sample — which is what the prefetch benchmarks
// lean on to demonstrate identical unique-query counts with and without
// speculation. The racing StreamContext stays the default: it finishes as
// soon as the fastest members have drained the budget, while partitioning
// waits for the slowest member's fixed quota. Cancellation works as in
// StreamContext.
func (f *Fleet) StreamPartitionedContext(ctx context.Context, total int) (samples <-chan Sample, stop func()) {
	quotas := make([]int64, len(f.members))
	share := int64(total) / int64(len(f.members))
	extra := total % len(f.members)
	for i := range quotas {
		quotas[i] = share
		if i < extra {
			quotas[i]++
		}
	}
	// quotas[id] is touched only by member id's goroutine: no atomics needed.
	return f.launch(ctx, func(id int) bool {
		if quotas[id] <= 0 {
			return false
		}
		quotas[id]--
		return true
	})
}

// Quiesce asks the active run to stop at the next step boundary: every
// member finishes and delivers its in-flight step, then retires instead of
// claiming another sample. The stream closes (without error) once the last
// member exits. Between runs it is a no-op — each run resets the flag.
func (f *Fleet) Quiesce() { f.quiesced.Store(true) }

// launch starts one goroutine per member; claim(id) grants member id its
// next sample (claims are never returned, even on early stop or quiesce).
func (f *Fleet) launch(ctx context.Context, claim func(id int) bool) (samples <-chan Sample, stop func()) {
	f.quiesced.Store(false)
	out := make(chan Sample, len(f.members))
	quit := make(chan struct{})
	var quitOnce sync.Once
	stop = func() { quitOnce.Do(func() { close(quit) }) }
	done := ctx.Done()
	var wg sync.WaitGroup
	for i, m := range f.members {
		wg.Add(1)
		go func(id int, w Walker) {
			defer wg.Done()
			for !f.quiesced.Load() && claim(id) {
				select {
				case <-quit:
					return
				case <-done:
					return
				default:
				}
				v := w.Step()
				if w.Err() != nil {
					// The step's query path failed (cancelled round-trip,
					// exhausted budget): v is a stale position, not a sample.
					return
				}
				s := Sample{Walker: id, Node: v, Weight: w.StationaryWeight(v)}
				if w.Err() != nil {
					// The weight read queried the source (an uncached
					// degree, MTO's exact or sampled weight) and that query
					// failed: s.Weight is not a weight.
					return
				}
				select {
				case out <- s:
				case <-quit:
					return
				case <-done:
					return
				}
			}
		}(i, m)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, stop
}

// Samples drains StreamContext(total) into a slice, in arrival order.
func (f *Fleet) Samples(total int) []Sample {
	//rewirelint:allow ctxflow context-less convenience for in-process experiments; ctx-aware callers use StreamContext
	stream, stop := f.StreamContext(context.Background(), total)
	return drain(stream, stop, total)
}

// SamplesPartitioned drains StreamPartitionedContext(total) into a slice.
func (f *Fleet) SamplesPartitioned(total int) []Sample {
	//rewirelint:allow ctxflow context-less convenience for in-process experiments; ctx-aware callers use StreamPartitionedContext
	stream, stop := f.StreamPartitionedContext(context.Background(), total)
	return drain(stream, stop, total)
}

func drain(stream <-chan Sample, stop func(), total int) []Sample {
	defer stop()
	out := make([]Sample, 0, total)
	for s := range stream {
		out = append(out, s)
	}
	return out
}

// PerWalker tallies how many of the given samples each of k walkers drew.
func PerWalker(samples []Sample, k int) []int {
	counts := make([]int, k)
	for _, s := range samples {
		if s.Walker >= 0 && s.Walker < k {
			counts[s.Walker]++
		}
	}
	return counts
}
