package osn

import (
	"context"
	"sync"
)

// A Seat names one caller that fetches through a Client again and again — a
// fleet member — across its Fetch calls. A batching dispatcher that holds its
// window for the callers a completed round trip released counts a seated
// caller's place by its seat, so the caller can give the place up when it
// will not come back for it: when it retires, or when its next miss joins a
// fetch already in flight and so never reaches the dispatcher (the Client
// does that on its own). A seat belongs to one goroutine at a time.
//
// A seat rides the context of its caller's fetches (Tag, SeatFrom). Callers
// that do not come back for a place are seated unowed: the prefetch pool's
// workers and QueryBatchContext's one-shot fetches.
type Seat struct {
	unowed bool

	mu     sync.Mutex
	holder SeatHolder // the dispatcher that last held a place for the seat
}

// SeatHolder is a dispatcher that holds places for seats.
type SeatHolder interface {
	// Owe holds a place in the next batch for each seat, as though a
	// completed round trip had just released their callers.
	Owe(seats ...*Seat)
	// Vacate gives up the place s holds, if it holds one in the current
	// hold; otherwise it does nothing.
	Vacate(s *Seat)
}

// NewSeat returns a seat for one demand caller.
func NewSeat() *Seat { return &Seat{} }

type seatKey struct{}

// Tag returns ctx carrying s: every fetch issued under it is s's.
func (s *Seat) Tag(ctx context.Context) context.Context {
	return context.WithValue(ctx, seatKey{}, s)
}

// SeatFrom returns the seat ctx carries (nil when none).
func SeatFrom(ctx context.Context) *Seat {
	s, _ := ctx.Value(seatKey{}).(*Seat)
	return s
}

// Unowed reports whether s's fetches are never owed a place.
func (s *Seat) Unowed() bool { return s.unowed }

// Held records that h holds a place for s, so that Leave can give it up.
func (s *Seat) Held(h SeatHolder) {
	s.mu.Lock()
	s.holder = h
	s.mu.Unlock()
}

// Leave gives up the place s holds, if any: its caller will send no fetch
// for it. A seat that holds none — it already came back, or the hold ended —
// changes nothing. Leave on a nil seat does nothing.
func (s *Seat) Leave() {
	if s == nil {
		return
	}
	s.mu.Lock()
	h := s.holder
	s.holder = nil
	s.mu.Unlock()
	if h != nil {
		h.Vacate(s)
	}
}
