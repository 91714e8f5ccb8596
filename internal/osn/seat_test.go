package osn

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"rewire/internal/graph"
)

// seatLog is a backend that records the seat of every fetch's context and,
// with a gate, holds each fetch until released. It is also a SeatHolder
// that records what it is asked to owe and vacate.
type seatLog struct {
	gate chan struct{}

	mu      sync.Mutex
	fetched []*Seat
	owed    []*Seat
	vacated []*Seat
}

func (b *seatLog) Fetch(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, error) {
	b.mu.Lock()
	b.fetched = append(b.fetched, SeatFrom(ctx))
	b.mu.Unlock()
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out := make([][]graph.NodeID, len(ids))
	for i, v := range ids {
		out[i] = []graph.NodeID{v + 1}
	}
	return out, nil
}

func (b *seatLog) Owe(seats ...*Seat) {
	b.mu.Lock()
	b.owed = append(b.owed, seats...)
	b.mu.Unlock()
}

func (b *seatLog) Vacate(s *Seat) {
	b.mu.Lock()
	b.vacated = append(b.vacated, s)
	b.mu.Unlock()
}

func (b *seatLog) snapshot() (fetched, owed, vacated []*Seat) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.fetched), slices.Clone(b.owed), slices.Clone(b.vacated)
}

// TestJoinedDemandLeavesSeat: a seated demand that joins a fetch already in
// flight leaves its seat before it waits, so the dispatcher holding a place
// for it hears at once; a demand that drives its own fetch does not leave.
func TestJoinedDemandLeavesSeat(t *testing.T) {
	be := &seatLog{gate: make(chan struct{})}
	c := NewClient(be)
	owner, joiner := NewSeat(), NewSeat()
	joiner.Held(be)
	res := make(chan error, 2)
	go func() {
		_, err := c.NeighborsContext(owner.Tag(context.Background()), 7)
		res <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for fetched, _, _ := be.snapshot(); len(fetched) == 0; fetched, _, _ = be.snapshot() {
		if time.Now().After(deadline) {
			t.Fatal("the owner's fetch never reached the backend")
		}
		time.Sleep(100 * time.Microsecond)
	}
	go func() {
		_, err := c.NeighborsContext(joiner.Tag(context.Background()), 7)
		res <- err
	}()
	for _, _, vacated := be.snapshot(); len(vacated) == 0; _, _, vacated = be.snapshot() {
		if time.Now().After(deadline) {
			t.Fatal("the joined demand never left its seat")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(be.gate)
	for range 2 {
		if err := <-res; err != nil {
			t.Fatal(err)
		}
	}
	fetched, _, vacated := be.snapshot()
	if !slices.Equal(fetched, []*Seat{owner}) || !slices.Equal(vacated, []*Seat{joiner}) {
		t.Fatalf("fetches seated %v and leaves %v; want one fetch by the owner and one leave by the joiner", fetched, vacated)
	}
	// The leave forgot the holder: a second one calls nobody.
	joiner.Leave()
	if _, _, vacated := be.snapshot(); len(vacated) != 1 {
		t.Fatalf("a second leave reached the holder (%d leaves)", len(vacated))
	}
}

// TestOneShotFetchesSeatedUnowed: the prefetch pool's fetches and
// QueryBatchContext's carry an unowed seat; a demand carries its caller's.
func TestOneShotFetchesSeatedUnowed(t *testing.T) {
	be := &seatLog{}
	c := NewPrefetchingClient(be, PrefetchConfig{Workers: 1})
	defer c.StopPrefetch()
	c.Prefetch(1)
	deadline := time.Now().Add(5 * time.Second)
	for c.PrefetchStats().Fetched != 1 {
		if time.Now().After(deadline) {
			t.Fatal("speculative fetch never completed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := c.QueryBatchContext(context.Background(), []graph.NodeID{2, 3}); err != nil {
		t.Fatal(err)
	}
	seat := NewSeat()
	if _, err := c.NeighborsContext(seat.Tag(context.Background()), 4); err != nil {
		t.Fatal(err)
	}
	fetched, _, _ := be.snapshot()
	if len(fetched) != 4 || fetched[3] != seat {
		t.Fatalf("fetch seats %v; want three unowed, then the demand's", fetched)
	}
	for i, s := range fetched[:3] {
		if s == nil || !s.Unowed() {
			t.Fatalf("fetch %d seated %v, want an unowed seat", i, s)
		}
	}
}

// TestExpectReachesHolders: Expect owes the seats at every holder on the
// backend's Unwrap chain.
func TestExpectReachesHolders(t *testing.T) {
	be := &seatLog{}
	c := NewClient(wrapped{be})
	seats := []*Seat{NewSeat(), NewSeat()}
	c.Expect(seats...)
	if _, owed, _ := be.snapshot(); !slices.Equal(owed, seats) {
		t.Fatalf("owed %v, want %v", owed, seats)
	}
}
