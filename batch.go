package rewire

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"rewire/internal/osn"
)

// BatchingOptions tunes WithBatching. The zero value of every field selects
// its default.
type BatchingOptions struct {
	// MaxBatch caps the ids one dispatched backend Fetch carries; a full
	// window flushes immediately (default 64).
	MaxBatch int
	// MaxWait bounds how long a demanded id sits in the coalescing window
	// while other dispatches are in flight or callers released by the last
	// completion are still due back: when the window cannot flush
	// immediately, a timer flushes whatever has accumulated after MaxWait
	// (default 2ms). It also caps the timer of the completion hold, which
	// is otherwise a quarter of the dispatcher's recent round trip; a hold
	// whose callers all came back or left ends before its timer, and one
	// its timer ends lasts at least about 1ms, because the Go runtime
	// rounds a shorter timer up to 1ms when the process is otherwise idle.
	// An id arriving at an idle dispatcher with nobody due back never waits
	// at all.
	MaxWait time.Duration
	// MaxInflight caps concurrently dispatched backend Fetches — the bounded
	// parallelism an oversized caller batch is chunked across (default 4).
	MaxInflight int
}

func (o *BatchingOptions) withDefaults() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4
	}
}

// PartialFetcher is the former per-id fetch capability. Per-id results now
// ride Backend.Fetch as an *IDErrors, and nothing probes for this interface.
//
// Deprecated: return an *IDErrors from Fetch instead.
type PartialFetcher interface {
	FetchPartial(ctx context.Context, ids []NodeID) ([][]NodeID, []error, error)
}

// BatchStats counts a WithBatching dispatcher's activity. Flush counters
// attribute each dispatched batch to the rule that released it: a full
// window, an idle dispatcher (no id waited at all), the MaxWait timer, or
// the drain after a previous dispatch completed — at once when that
// completion released nobody, else when the callers it released are back
// or have left, or its hold expires.
type BatchStats struct {
	// Batches and IDs count dispatched backend Fetches and the ids they
	// carried (IDs/Batches is the achieved coalescing factor).
	Batches, IDs int64
	// FlushFull, FlushIdle, FlushTimer, FlushDrain split Batches by flush
	// rule.
	FlushFull, FlushIdle, FlushTimer, FlushDrain int64
	// Withdrawn counts ids whose demander cancelled before its result
	// arrived — removed from the window, or struck from an in-flight batch
	// (the wire request itself is cancelled once every id on it withdraws).
	Withdrawn int64
}

// BatchStatser is the optional Backend capability of reporting batch-dispatch
// statistics; WithBatching's backend implements it.
type BatchStatser interface {
	BatchStats() BatchStats
}

// WithBatching wraps b with a demand-coalescing dispatcher: concurrent
// Fetches — distinct walkers missing their cache, prefetch workers, batch
// queries — accumulate into a bounded window and go to b as one multi-id
// Fetch, fanning the results back to each waiter. For a request-metered
// provider this turns k simultaneous misses into one round-trip.
//
// Flush policy: a window holding MaxBatch ids flushes immediately; an id
// arriving at an idle dispatcher (nothing in flight, nobody due back)
// dispatches at once, so a lone walker pays zero added latency; otherwise
// ids wait — at most MaxWait, and usually much less. A completed dispatch
// holds the window for the callers it released: the drain goes once each
// of them has come back with a new Fetch or left, so a fleet's walkers,
// released together, ride the next round trip together instead of
// splitting into cohorts that each wait out the other's flight. A Session
// fleet member leaves when it retires, and when its next miss joins a fetch
// already in flight; its seat (carried in the Fetch context) tells the
// dispatcher which member a completion released. Callers without a seat
// are counted instead: the drain goes when as many of them have come back.
// The prefetch pool's fetches and batch queries' one-shot fetches are never
// held for, and a run's start holds the first member's miss for the
// others. A hold whose callers do not all come back or leave ends on a
// timer: a quarter of the dispatcher's recent round trip (a moving average
// of its completed fetches), capped by MaxWait, but at least about 1ms
// (see MaxWait). A completion that released nobody drains at once.
// Oversized caller batches are chunked into MaxBatch dispatches run with at
// most MaxInflight in flight.
//
// Semantics are exactly Backend's: per-caller results in input order, batch
// error on any per-id failure, provable trajectory- and billing-neutrality
// (the provider's cache, singleflight, and ledger sit above this layer and
// never see coalescing). Cancelling a caller's ctx withdraws its ids: from
// the window when undispatched, and from the in-flight batch's waiter count
// otherwise — the wire request is cancelled once every id on it withdraws.
// When b answers with an *IDErrors, each per-id error strikes only its own
// waiter; a batch that fails as a whole with ErrNoSuchUser is re-resolved
// id-by-id, so co-batched strangers still get answers from backends that
// cannot report per-id failures.
//
// The dispatcher holds no goroutines while idle and needs no Close of its
// own; Close on the returned backend's chain reaches b as usual.
func WithBatching(b Backend, o BatchingOptions) Backend {
	o.withDefaults()
	return &batchingBackend{inner: b, opt: o}
}

// fetch is one dispatched round-trip with per-id results: lists[i] is valid
// where errs[i] is nil (errs is nil when every id succeeded), and the batch
// error is non-nil only when the round-trip as a whole failed. A backend that
// fails a multi-id batch with ErrNoSuchUser instead of an *IDErrors gets
// single-id re-fetches, so one unknown id cannot poison a coalesced batch.
func (c *batchingBackend) fetch(ctx context.Context, ids []NodeID) ([][]NodeID, []error, error) {
	lists, err := c.inner.Fetch(ctx, ids)
	if err == nil {
		return lists, nil, nil
	}
	var ie *IDErrors
	if errors.As(err, &ie) {
		if len(ie.Errs) != len(ids) {
			return nil, nil, fmt.Errorf("rewire: backend returned %d per-id errors for %d ids", len(ie.Errs), len(ids))
		}
		return lists, ie.Errs, nil
	}
	if len(ids) == 1 || !errors.Is(err, ErrNoSuchUser) {
		return nil, nil, err
	}
	lists = make([][]NodeID, len(ids))
	errs := make([]error, len(ids))
	for i, v := range ids {
		l, e := c.inner.Fetch(ctx, []NodeID{v})
		switch {
		case e == nil && len(l) == 1:
			lists[i] = l[0]
		case e == nil:
			return nil, nil, fmt.Errorf("rewire: backend returned %d lists for 1 id", len(l))
		case errors.Is(e, ErrNoSuchUser):
			errs[i] = e
		default:
			return nil, nil, e
		}
	}
	return lists, errs, nil
}

// batchSlot is one demanded id's place in the dispatcher: filled in by the
// batch goroutine, published by closing done. b is set (under the
// dispatcher's mu) when the slot leaves the window for a dispatched batch,
// and resolved just before done closes.
type batchSlot struct {
	id       NodeID
	base     context.Context // detached demander ctx; parents the batch ctx
	call     *batchCall
	done     chan struct{}
	list     []NodeID
	err      error
	b        *dispatchedBatch
	resolved bool
}

// batchCall is one Fetch call's release bookkeeping, guarded by the
// dispatcher's mu: the completion that resolves its last slot released the
// caller, and owes it a place in the next batch unless it withdrew.
type batchCall struct {
	left      int       // slots not yet resolved
	seat      *osn.Seat // the caller's seat, nil when it has none
	withdrawn bool
}

// dispatchedBatch tracks one in-flight backend Fetch's live waiters. All
// fields are guarded by the dispatcher's mu except the final cancel call.
type dispatchedBatch struct {
	live   int // slots not withdrawn
	cancel context.CancelFunc
	dead   bool // live hit 0 before cancel was installed
}

// flush reasons, indexing into stats; flushNone lets only full windows go.
const (
	flushNone = iota - 1
	flushFull
	flushIdle
	flushTimer
	flushDrain
)

type batchingBackend struct {
	inner Backend
	opt   BatchingOptions

	mu       sync.Mutex
	pending  []*batchSlot
	inflight int
	timerOn  bool
	timerGen int
	// The places owed to callers released by completions: one per seat in
	// owing, and anon for calls without a seat. A place is paid when its
	// caller comes back with a new Fetch, or when its seat leaves; while
	// any is owed, a partial window is held for them, until holdGen's
	// timer expires.
	owing   map[*osn.Seat]struct{}
	anon    int
	holdGen int
	expired int64         // holds ended by their timer
	rtt     time.Duration // moving average of completed fetches
	stats   BatchStats
}

func (c *batchingBackend) Unwrap() Backend { return c.inner }

var _ osn.SeatHolder = (*batchingBackend)(nil)

// BatchStats returns the dispatch counters so far.
func (c *batchingBackend) BatchStats() BatchStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *batchingBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return [][]NodeID{}, nil
	}
	// The batch ctx must outlive any single demander (other waiters may share
	// the dispatch) but keep the demander's values — tenant attribution,
	// traces — so each slot carries a detached parent.
	base := context.WithoutCancel(ctx)
	seat := osn.SeatFrom(ctx)
	call := &batchCall{left: len(ids), seat: seat}
	slots := make([]*batchSlot, len(ids))
	c.mu.Lock()
	waited := len(c.pending)
	for i, v := range ids {
		s := &batchSlot{id: v, base: base, call: call, done: make(chan struct{})}
		slots[i] = s
		c.pending = append(c.pending, s)
	}
	// An arrival pays its own place, if it is owed one. The one that pays
	// the last lets the held window go with it.
	why := flushNone
	switch {
	case c.payLocked(seat):
		why = flushDrain
		if waited == 0 && c.inflight == 0 {
			why = flushIdle
		}
	case c.owedLocked() == 0 && c.inflight == 0:
		why = flushIdle
	}
	batches := c.takeLocked(why)
	c.armTimerLocked()
	c.mu.Unlock()
	c.launch(batches)

	out := make([][]NodeID, len(ids))
	for i, s := range slots {
		select {
		case <-s.done:
			if s.err != nil {
				c.withdraw(slots[i+1:])
				return nil, s.err
			}
			out[i] = s.list
		case <-ctx.Done():
			c.withdraw(slots[i:])
			return nil, ctx.Err()
		}
	}
	return out, nil
}

// takeLocked carves dispatchable batches off the window under the flush
// policy: a MaxBatch-full prefix always goes; a partial window goes for
// reason, except that flushNone never lets one go and flushIdle only while
// nothing is in flight. MaxInflight bounds how much leaves. Callers hold
// c.mu and pass the result to launch after unlocking.
func (c *batchingBackend) takeLocked(reason int) []*launchBatch {
	var out []*launchBatch
	for len(c.pending) > 0 && c.inflight < c.opt.MaxInflight {
		why := reason
		if len(c.pending) >= c.opt.MaxBatch {
			why = flushFull
		} else if why == flushNone || (why == flushIdle && c.inflight > 0) {
			break
		}
		n := min(len(c.pending), c.opt.MaxBatch)
		slots := slices.Clone(c.pending[:n])
		c.pending = slices.Delete(c.pending, 0, n)
		db := &dispatchedBatch{live: n}
		for _, s := range slots {
			s.b = db
		}
		c.inflight++
		c.stats.Batches++
		c.stats.IDs += int64(n)
		switch why {
		case flushFull:
			c.stats.FlushFull++
		case flushIdle:
			c.stats.FlushIdle++
		case flushTimer:
			c.stats.FlushTimer++
		case flushDrain:
			c.stats.FlushDrain++
		}
		out = append(out, &launchBatch{slots: slots, db: db})
	}
	if len(c.pending) == 0 && c.timerOn {
		// Nothing left for the armed timer to flush; retire it.
		c.timerGen++
		c.timerOn = false
	}
	return out
}

// armTimerLocked schedules a MaxWait flush for the window's residue. Callers
// hold c.mu.
func (c *batchingBackend) armTimerLocked() {
	if c.timerOn || len(c.pending) == 0 {
		return
	}
	c.timerOn = true
	gen := c.timerGen
	time.AfterFunc(c.opt.MaxWait, func() { c.timerFire(gen) })
}

// timerFire is the MaxWait flush: dispatch whatever accumulated, even while
// other batches are in flight.
func (c *batchingBackend) timerFire(gen int) {
	c.mu.Lock()
	if gen != c.timerGen {
		c.mu.Unlock()
		return
	}
	c.timerGen++
	c.timerOn = false
	batches := c.takeLocked(flushTimer)
	c.armTimerLocked() // MaxInflight may have stranded a residue
	c.mu.Unlock()
	c.launch(batches)
}

// armHoldLocked (re)starts the hold for callers a completion just
// released: a quarter of the recent round trip, at most MaxWait. Callers
// hold c.mu.
func (c *batchingBackend) armHoldLocked() {
	c.holdGen++
	gen := c.holdGen
	time.AfterFunc(min(c.opt.MaxWait, c.rtt/4), func() { c.holdFire(gen) })
}

// holdFire ends a hold whose released callers did not all come back or
// leave: they are owed nothing more, and the window drains without them.
func (c *batchingBackend) holdFire(gen int) {
	c.mu.Lock()
	if gen != c.holdGen {
		c.mu.Unlock()
		return
	}
	c.holdGen++
	c.anon = 0
	clear(c.owing)
	c.expired++
	batches := c.takeLocked(flushDrain)
	c.armTimerLocked()
	c.mu.Unlock()
	c.launch(batches)
}

// owedLocked returns how many places are owed. Callers hold c.mu.
func (c *batchingBackend) owedLocked() int { return len(c.owing) + c.anon }

// oweLocked owes a place in the next batch to the caller of a call a
// completion released, and returns how many places that adds: one per
// seat however many of its calls are released, one per call without a
// seat, none for an unowed seat. Callers hold c.mu.
func (c *batchingBackend) oweLocked(s *osn.Seat) int {
	switch {
	case s == nil:
		c.anon++
		return 1
	case s.Unowed():
		return 0
	}
	if _, ok := c.owing[s]; ok {
		return 0
	}
	if c.owing == nil {
		c.owing = make(map[*osn.Seat]struct{})
	}
	c.owing[s] = struct{}{}
	s.Held(c)
	return 1
}

// payLocked pays the place owed to the caller seated at s (an unseated one
// when s is nil), if one is owed, and reports whether that was the last
// place owed, which ends the hold. Callers hold c.mu.
func (c *batchingBackend) payLocked(s *osn.Seat) bool {
	if s == nil {
		if c.anon == 0 {
			return false
		}
		c.anon--
	} else {
		if _, ok := c.owing[s]; !ok {
			return false
		}
		delete(c.owing, s)
	}
	if c.owedLocked() > 0 {
		return false
	}
	c.holdGen++
	return true
}

// Owe holds a place in the next batch for each seat, as a completion that
// released their callers would.
func (c *batchingBackend) Owe(seats ...*osn.Seat) {
	c.mu.Lock()
	added := 0
	for _, s := range seats {
		added += c.oweLocked(s)
	}
	if added > 0 {
		c.armHoldLocked()
	}
	c.mu.Unlock()
}

// Vacate pays the place owed to s's caller at once, when it will not come
// back for it: a fleet member that retired, or a demand that joined a fetch
// already in flight. A seat owed no place changes nothing.
func (c *batchingBackend) Vacate(s *osn.Seat) {
	c.mu.Lock()
	if !c.payLocked(s) {
		c.mu.Unlock()
		return
	}
	batches := c.takeLocked(flushDrain)
	c.armTimerLocked()
	c.mu.Unlock()
	c.launch(batches)
}

type launchBatch struct {
	slots []*batchSlot
	db    *dispatchedBatch
}

// launch starts one goroutine per taken batch. Runs outside c.mu: deriving
// the cancellable batch ctx is a context call, and nothing here needs the
// window state.
func (c *batchingBackend) launch(batches []*launchBatch) {
	for _, lb := range batches {
		bctx, cancel := context.WithCancel(lb.slots[0].base)
		c.mu.Lock()
		lb.db.cancel = cancel
		dead := lb.db.dead
		c.mu.Unlock()
		if dead {
			// Every waiter withdrew between take and launch: skip the wire.
			cancel()
			c.finish()
			continue
		}
		go c.run(bctx, cancel, lb)
	}
}

// run performs one dispatched backend fetch and fans results out. It owns
// the slots' result fields until it closes their done channels.
func (c *batchingBackend) run(ctx context.Context, cancel context.CancelFunc, lb *launchBatch) {
	ids := make([]NodeID, len(lb.slots))
	for i, s := range lb.slots {
		ids[i] = s.id
	}
	t0 := time.Now()
	lists, errs, err := c.fetch(ctx, ids)
	rtt := time.Since(t0)
	if err == nil && len(lists) != len(ids) {
		err = fmt.Errorf("rewire: backend returned %d lists for %d ids", len(lists), len(ids))
	}
	for i, s := range lb.slots {
		switch {
		case err != nil:
			s.err = err
		case errs != nil && errs[i] != nil:
			s.err = errs[i]
		default:
			s.list = lists[i]
		}
	}
	// Count the callers this completion releases before any of them can
	// return: a fast returner must find its place already owed.
	c.mu.Lock()
	if c.rtt == 0 {
		c.rtt = rtt
	} else {
		c.rtt += (rtt - c.rtt) / 8
	}
	released := 0
	for _, s := range lb.slots {
		s.resolved = true
		if s.call.left--; s.call.left == 0 && !s.call.withdrawn {
			released += c.oweLocked(s.call.seat)
		}
	}
	batches := c.completeLocked(released)
	c.mu.Unlock()
	for _, s := range lb.slots {
		close(s.done)
	}
	cancel()
	c.launch(batches)
}

// finish releases a dispatch slot that released no caller and drains the
// window behind it.
func (c *batchingBackend) finish() {
	c.mu.Lock()
	batches := c.completeLocked(0)
	c.mu.Unlock()
	c.launch(batches)
}

// completeLocked releases a dispatch slot whose completion let released
// callers go. With callers owed, the window is held for them (only full
// windows leave); otherwise it drains at once — the self-clocking flush that
// pipelines a busy fleet without timer waits. Callers hold c.mu.
func (c *batchingBackend) completeLocked(released int) []*launchBatch {
	c.inflight--
	why := flushDrain
	if c.owedLocked() > 0 {
		why = flushNone
		if released > 0 {
			c.armHoldLocked()
		}
	}
	batches := c.takeLocked(why)
	c.armTimerLocked()
	return batches
}

// withdraw removes a cancelled caller's unresolved slots: pending ones leave
// the window; dispatched ones decrement their batch's live count, and the
// last withdrawal cancels the wire request itself. Slots that already
// resolved are skipped, and the call is marked so that its release is never
// owed a place in a later batch.
func (c *batchingBackend) withdraw(slots []*batchSlot) {
	if len(slots) == 0 {
		return
	}
	var cancels []context.CancelFunc
	c.mu.Lock()
	slots[0].call.withdrawn = true
	for _, s := range slots {
		if s.resolved {
			continue
		}
		c.stats.Withdrawn++
		if s.b == nil {
			if i := slices.Index(c.pending, s); i >= 0 {
				c.pending = slices.Delete(c.pending, i, i+1)
			}
			continue
		}
		s.b.live--
		if s.b.live == 0 {
			if s.b.cancel != nil {
				cancels = append(cancels, s.b.cancel)
			} else {
				s.b.dead = true
			}
		}
	}
	if len(c.pending) == 0 && c.timerOn {
		c.timerGen++
		c.timerOn = false
	}
	c.mu.Unlock()
	for _, f := range cancels {
		f()
	}
}

// batchSizeBucket indexes the power-of-two histogram in BackendMetrics:
// bucket i holds batches of (2^(i-1), 2^i] ids, the last bucket everything
// larger.
func batchSizeBucket(n int) int {
	if n < 1 {
		return 0
	}
	return min(len(MetricsSnapshot{}.BatchSizeBuckets)-1, bits.Len(uint(n-1)))
}
