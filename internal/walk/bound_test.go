package walk

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// failingSource answers even ids and fails odd ones, each failure with a
// fresh error value so a test can tell which one a Bound latched.
type failingSource struct {
	mu     sync.Mutex
	issued map[error]bool
}

func newFailingSource() *failingSource { return &failingSource{issued: make(map[error]bool)} }

func (f *failingSource) Neighbors(v graph.NodeID) []graph.NodeID {
	nbrs, _ := f.NeighborsContext(context.Background(), v)
	return nbrs
}

func (f *failingSource) Degree(v graph.NodeID) int { return len(f.Neighbors(v)) }

func (f *failingSource) NeighborsContext(ctx context.Context, v graph.NodeID) ([]graph.NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if v%2 == 0 {
		return []graph.NodeID{v + 1}, nil
	}
	err := fmt.Errorf("node %d unavailable", v)
	f.mu.Lock()
	f.issued[err] = true
	f.mu.Unlock()
	return nil, err
}

func (f *failingSource) wasIssued(err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.issued[err]
}

// TestBoundLatchesFirstErrorConcurrently hammers a Bound from several
// goroutines reading, failing and polling Err at once. Run it under -race:
// the Bound takes no lock, so the detector is what checks its atomics.
func TestBoundLatchesFirstErrorConcurrently(t *testing.T) {
	src := newFailingSource()
	b := NewBound(src)
	const workers, reads = 8, 2000
	for run := range 3 {
		b.Bind(context.Background())
		if err := b.Err(); err != nil {
			t.Fatalf("run %d: Err after Bind = %v, want nil", run, err)
		}
		// One failure before the stampede is, unambiguously, the first.
		var first error
		if run > 0 {
			if _, first = b.NeighborsContext(context.Background(), 1); first == nil {
				t.Fatal("odd id did not fail")
			}
		}
		var wg sync.WaitGroup
		var latched atomic.Pointer[error]
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var seen error
				for i := range reads {
					v := graph.NodeID(w*reads + i)
					nbrs := b.Neighbors(v)
					if v%2 == 0 && len(nbrs) != 1 {
						t.Errorf("even id %d read %v", v, nbrs)
					}
					if v%2 == 1 && nbrs != nil {
						t.Errorf("odd id %d read %v, want nil", v, nbrs)
					}
					if i%3 == 0 {
						b.fail(errors.New("late failure"))
					}
					err := b.Err()
					if err == nil {
						t.Errorf("Err = nil after a failed read")
						return
					}
					if seen != nil && err != seen {
						t.Errorf("latched error changed from %v to %v", seen, err)
						return
					}
					seen = err
				}
				latched.CompareAndSwap(nil, &seen)
			}()
		}
		wg.Wait()
		err := b.Err()
		if got := latched.Load(); got == nil || *got != err {
			t.Fatalf("run %d: workers saw a different latched error than Err = %v", run, err)
		}
		if run > 0 && err != first {
			t.Fatalf("run %d: latched %v, want the first failure %v", run, err, first)
		}
		if !src.wasIssued(err) && err.Error() != "late failure" {
			t.Fatalf("run %d: latched %v, which no failure produced", run, err)
		}
	}
}

func TestBoundBindClearsErrorAndSwitchesContext(t *testing.T) {
	b := NewBound(newFailingSource())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b.Bind(ctx)
	if nbrs := b.Neighbors(0); nbrs != nil {
		t.Fatalf("read under a cancelled context = %v, want nil", nbrs)
	}
	if err := b.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	b.Bind(context.Background())
	if err := b.Err(); err != nil {
		t.Fatalf("Err after rebinding = %v, want nil", err)
	}
	if nbrs := b.Neighbors(0); len(nbrs) != 1 {
		t.Fatalf("read after rebinding = %v, want one neighbor", nbrs)
	}
	if b.Neighbors(3) != nil || b.Err() == nil {
		t.Fatal("a failed read after rebinding did not latch")
	}
}

// TestBoundForwardsLowDegreeCount: a Bound reports its inner client's count
// of demand-cached degree-2/3 users, and 0 over a source without a cache.
func TestBoundForwardsLowDegreeCount(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}})
	if got := NewBound(newFailingSource()).LowDegreeCount(); got != 0 {
		t.Errorf("Bound over a cacheless source: LowDegreeCount = %d, want 0", got)
	}
	c := osn.NewClient(osn.NewService(g, nil, osn.Config{}))
	b := NewBound(c)
	for _, v := range []graph.NodeID{0, 1, 3} { // degrees 3, 2, 1
		b.Neighbors(v)
	}
	if got, want := b.LowDegreeCount(), c.LowDegreeCount(); got != 2 || got != want {
		t.Errorf("Bound over a client: LowDegreeCount = %d, client says %d, want 2", got, want)
	}
}

// testSeat tags contexts with itself and counts its leaves.
type testSeat struct{ left atomic.Int32 }

type testSeatKey struct{}

func (s *testSeat) Tag(ctx context.Context) context.Context {
	return context.WithValue(ctx, testSeatKey{}, s)
}

func (s *testSeat) Leave() { s.left.Add(1) }

// seatSource answers every id with one neighbor and records the seat each
// query's context carried.
type seatSource struct {
	mu    sync.Mutex
	seats []*testSeat
	tags  []string
}

type tagKey struct{}

func (s *seatSource) Neighbors(v graph.NodeID) []graph.NodeID {
	nbrs, _ := s.NeighborsContext(context.Background(), v)
	return nbrs
}

func (s *seatSource) Degree(v graph.NodeID) int { return len(s.Neighbors(v)) }

func (s *seatSource) NeighborsContext(ctx context.Context, v graph.NodeID) ([]graph.NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seat, _ := ctx.Value(testSeatKey{}).(*testSeat)
	tag, _ := ctx.Value(tagKey{}).(string)
	s.mu.Lock()
	s.seats = append(s.seats, seat)
	s.tags = append(s.tags, tag)
	s.mu.Unlock()
	return []graph.NodeID{v + 1}, nil
}

func (s *seatSource) last() (*testSeat, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seats[len(s.seats)-1], s.tags[len(s.tags)-1]
}

// TestBoundMemberTagsQueries: a member view's queries carry its seat under
// the root's binding, Bind rebinds every view (BindUnseated without its
// seat), a view's failure latches on the root, and Leave leaves the view's
// seat only.
func TestBoundMemberTagsQueries(t *testing.T) {
	src := &seatSource{}
	root := NewBound(src)
	seat := &testSeat{}
	m := root.Member(seat)
	m.Neighbors(1)
	if got, _ := src.last(); got != seat {
		t.Fatalf("member query carried seat %p, want %p", got, seat)
	}
	root.Neighbors(1)
	if got, _ := src.last(); got != nil {
		t.Fatalf("root query carried seat %p, want none", got)
	}
	root.Bind(context.WithValue(context.Background(), tagKey{}, "run 2"))
	m.Neighbors(1)
	if got, tag := src.last(); got != seat || tag != "run 2" {
		t.Fatalf("after Bind, member query carried seat %p and tag %q; want %p and the new binding's", got, tag, seat)
	}
	root.BindUnseated(context.WithValue(context.Background(), tagKey{}, "run 3"))
	m.Neighbors(1)
	if got, tag := src.last(); got != nil || tag != "run 3" {
		t.Fatalf("after BindUnseated, member query carried seat %p and tag %q; want none and the new binding's", got, tag)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	root.Bind(ctx)
	if m.Neighbors(1) != nil || !errors.Is(root.Err(), context.Canceled) || !errors.Is(m.Err(), context.Canceled) {
		t.Fatalf("a member's failed read under a cancelled binding: root Err %v, member Err %v", root.Err(), m.Err())
	}
	root.Leave()
	if n := seat.left.Load(); n != 0 {
		t.Fatalf("the root's Leave left a member's seat %d times", n)
	}
	m.Leave()
	if n := seat.left.Load(); n != 1 {
		t.Fatalf("member Leave left its seat %d times, want 1", n)
	}
}
