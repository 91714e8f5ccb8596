// Package lockheldfix seeds every shape of lock-across-blocking violation the
// analyzer must catch, next to the released/annotated forms it must not.
package lockheldfix

import (
	"context"
	"sync"
	"time"
)

// Client mimics the repo's caching client: a mutex guarding state, plus a
// channel standing in for any rendezvous with another goroutine.
type Client struct {
	mu sync.Mutex
	ch chan int
}

// fetch stands in for a provider round-trip (ctx-first signature).
func fetch(ctx context.Context, v int) int {
	<-ctx.Done()
	return v
}

// Query is the context-less round-trip spelling.
func (c *Client) Query(v int) int { return v }

func (c *Client) sendWhileHeld() {
	c.mu.Lock()
	c.ch <- 1 // want "channel send while c.mu is held"
	c.mu.Unlock()
}

func (c *Client) recvWhileDeferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return <-c.ch // want "channel receive while c.mu is held"
}

func (c *Client) selectWhileHeld(done <-chan struct{}) {
	c.mu.Lock()
	select { // want "blocking select while c.mu is held"
	case <-done:
	case c.ch <- 1:
	}
	c.mu.Unlock()
}

func (c *Client) drainWhileHeld() {
	c.mu.Lock()
	for range c.ch { // want "range over a channel while c.mu is held"
	}
	c.mu.Unlock()
}

func (c *Client) roundTripWhileHeld(ctx context.Context) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fetch(ctx, 1) // want "fetch takes a context"
}

func (c *Client) queryWhileHeld(o *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return o.Query(1) // want "Query can reach the provider but c.mu is held"
}

func (c *Client) schedulerWhileHeld(wg *sync.WaitGroup) {
	c.mu.Lock()
	wg.Wait()                   // want "Wait blocks on the scheduler but c.mu is held"
	time.Sleep(time.Nanosecond) // want "Sleep blocks on the scheduler but c.mu is held"
	c.mu.Unlock()
}

func (c *Client) branchWhileHeld(cold bool) {
	c.mu.Lock()
	if cold {
		c.ch <- 1 // want "channel send while c.mu is held"
	}
	c.mu.Unlock()
}

// Map stands for any sharded store with a compound op: Locked runs its
// callback under the key's shard lock, which the pass treats as held.
type Map struct{}

// Locked runs fn while holding the key's shard lock.
func (m *Map) Locked(k int, fn func()) { fn() }

func (c *Client) compoundOpBlocks(m *Map) {
	m.Locked(1, func() {
		c.ch <- 1 // want "channel send while m's shard lock is held"
	})
}

// --- released, deferred-to-later, and annotated forms stay silent ---

func (c *Client) releasedFirst() {
	c.mu.Lock()
	c.mu.Unlock()
	c.ch <- 1
}

func (c *Client) spawnedGoroutine() {
	c.mu.Lock()
	go func() { c.ch <- 1 }() // runs outside the critical section
	c.mu.Unlock()
}

func (c *Client) nonBlockingSelect() {
	c.mu.Lock()
	select {
	case c.ch <- 1:
	default:
	}
	c.mu.Unlock()
}

// ledger mimics the client's tiny billing ledger: taking it under the shard
// lock is the documented lock order, not a violation.
type ledger struct{ mu sync.Mutex }

func (c *Client) nestedLockOrder(l *ledger) {
	c.mu.Lock()
	l.mu.Lock()
	l.mu.Unlock()
	c.mu.Unlock()
}

func (c *Client) annotatedException() {
	c.mu.Lock()
	//rewirelint:allow lockheld the channel is buffered by construction; the send cannot block
	c.ch <- 1
	c.mu.Unlock()
}
