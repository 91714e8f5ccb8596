package osn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rewire/internal/gen"
	"rewire/internal/graph"
)

func billSum(c *Client) int64 {
	var sum int64
	for _, b := range c.TenantBills() {
		sum += b.Unique
	}
	return sum
}

// TestTenantAttribution pins the core accounting rule: a query is billed to
// the tenant whose demand made it billable; cache hits are free for every
// tenant; unattributed contexts land on the anonymous tenant; and the
// per-tenant bills partition the global ledger exactly.
func TestTenantAttribution(t *testing.T) {
	svc, _ := newTestService(Config{})
	c := NewClient(svc)
	ctxA := WithTenant(context.Background(), "alice")
	ctxB := WithTenant(context.Background(), "bob")
	for v := graph.NodeID(0); v < 5; v++ { // alice demands 0..4 cold
		if _, err := c.NeighborsContext(ctxA, v); err != nil {
			t.Fatal(err)
		}
	}
	for v := graph.NodeID(3); v < 8; v++ { // bob: 3,4 are hits, 5..7 cold
		if _, err := c.NeighborsContext(ctxB, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.NeighborsContext(context.Background(), 8); err != nil { // anonymous
		t.Fatal(err)
	}
	if got := c.TenantBill("alice").Unique; got != 5 {
		t.Fatalf("alice billed %d, want 5", got)
	}
	if got := c.TenantBill("bob").Unique; got != 3 {
		t.Fatalf("bob billed %d, want 3 (cache hits must be free)", got)
	}
	if got := c.TenantBill("").Unique; got != 1 {
		t.Fatalf("anonymous billed %d, want 1", got)
	}
	if got, want := billSum(c), c.UniqueQueries(); got != want {
		t.Fatalf("tenant bills sum to %d, global ledger says %d", got, want)
	}
	if got := c.TenantBill("nobody"); got != (TenantBill{}) {
		t.Fatalf("unknown tenant has a bill: %+v", got)
	}
}

// TestTenantCoalescedFetchBillsFirstDemander: when two tenants' demands
// coalesce onto one round-trip, the bill lands on the tenant whose demand
// arrived first — never on both.
func TestTenantCoalescedFetchBillsFirstDemander(t *testing.T) {
	svc, _ := newTestService(Config{RealLatency: 150 * time.Millisecond})
	c := NewClient(svc)
	ctxA := WithTenant(context.Background(), "alice")
	ctxB := WithTenant(context.Background(), "bob")
	done := make(chan error, 1)
	go func() {
		_, err := c.NeighborsContext(ctxA, 2)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // alice owns the in-flight fetch
	if _, err := c.NeighborsContext(ctxB, 2); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := c.TenantBill("alice").Unique; got != 1 {
		t.Fatalf("alice billed %d, want 1", got)
	}
	if got := c.TenantBill("bob").Unique; got != 0 {
		t.Fatalf("bob billed %d for a coalesced wait, want 0", got)
	}
	if got := c.UniqueQueries(); got != 1 {
		t.Fatalf("global ledger %d, want 1", got)
	}
}

// TestTenantWithdrawalAndSpeculativeUpgrade: a tenant that cancels out of a
// coalesced wait withdraws its reservation (billing nothing); the fetch
// commits speculative; and the tenant whose later demand consumes the parked
// response is the one billed.
func TestTenantWithdrawalAndSpeculativeUpgrade(t *testing.T) {
	svc, _ := newTestService(Config{RealLatency: 150 * time.Millisecond})
	c := NewClient(svc)
	// A speculative fetch (no demand) in flight...
	specDone := make(chan struct{})
	go func() {
		defer close(specDone)
		c.fetchSpeculative(context.Background(), 3)
	}()
	time.Sleep(30 * time.Millisecond)
	// ...alice coalesces onto it as first demander, then gives up.
	ctxA, cancel := context.WithTimeout(WithTenant(context.Background(), "alice"), 60*time.Millisecond)
	defer cancel()
	if _, err := c.NeighborsContext(ctxA, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if got := c.TenantBill("alice"); got.Unique != 0 || got.Reserved != 0 {
		t.Fatalf("withdrawn alice still on the ledger: %+v", got)
	}
	<-specDone
	if got := c.SpeculativeCount(); got != 1 {
		t.Fatalf("fetch nobody waited for committed non-speculative (count %d)", got)
	}
	// Bob's demand consumes the parked response: billed to bob, once.
	if _, err := c.NeighborsContext(WithTenant(context.Background(), "bob"), 3); err != nil {
		t.Fatal(err)
	}
	if got := c.TenantBill("bob").Unique; got != 1 {
		t.Fatalf("bob billed %d for the speculative upgrade, want 1", got)
	}
	if got, want := billSum(c), c.UniqueQueries(); got != want || want != 1 {
		t.Fatalf("bills sum %d, ledger %d, want 1", got, want)
	}
}

// TestTenantBudgetIsolation: a tenant's private cap stops that tenant — and
// only that tenant — while cached knowledge stays free past the cap.
func TestTenantBudgetIsolation(t *testing.T) {
	svc, _ := newTestService(Config{})
	c := NewClient(svc)
	c.SetTenantBudget("alice", 3)
	ctxA := WithTenant(context.Background(), "alice")
	for v := graph.NodeID(0); v < 3; v++ {
		if _, err := c.NeighborsContext(ctxA, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.NeighborsContext(ctxA, 9); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("alice's 4th cold query got %v, want ErrBudgetExhausted", err)
	}
	if _, err := c.NeighborsContext(ctxA, 1); err != nil {
		t.Fatalf("alice's cache hit failed past her cap: %v", err)
	}
	// Bob is untouched by alice's cap — including on the very id alice was
	// refused.
	ctxB := WithTenant(context.Background(), "bob")
	if _, err := c.NeighborsContext(ctxB, 9); err != nil {
		t.Fatal(err)
	}
	// Raising the cap resumes alice.
	c.SetTenantBudget("alice", 10)
	if _, err := c.NeighborsContext(ctxA, 5); err != nil {
		t.Fatal(err)
	}
	if got := c.TenantBill("alice"); got.Unique != 4 || got.Budget != 10 {
		t.Fatalf("alice's bill = %+v, want Unique 4 Budget 10", got)
	}
}

// TestTenantBillsPartitionLedgerUnderConcurrency hammers one client from
// several tenants over overlapping ids and asserts the partition invariant
// the serving layer's billing isolation rests on.
func TestTenantBillsPartitionLedgerUnderConcurrency(t *testing.T) {
	g := gen.Complete(64)
	svc := NewService(g, nil, Config{})
	c := NewClient(svc)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := WithTenant(context.Background(), fmt.Sprintf("tenant-%d", w%4))
			for i := 0; i < 200; i++ {
				v := graph.NodeID((i*7 + w*13) % 64)
				if _, err := c.NeighborsContext(ctx, v); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := billSum(c), c.UniqueQueries(); got != want {
		t.Fatalf("tenant bills sum to %d, global ledger says %d", got, want)
	}
	if got := c.UniqueQueries(); got != 64 {
		t.Fatalf("billed %d unique queries over 64 distinct ids", got)
	}
	for name, b := range c.TenantBills() {
		if b.Reserved != 0 {
			t.Fatalf("tenant %q left a dangling reservation: %+v", name, b)
		}
	}
}
