package osn

import (
	"fmt"

	"rewire/internal/graph"
	"rewire/internal/store"
)

// Journal is the client's durability hook: when installed (SetJournal), every
// billing-relevant cache transition is persisted through it BEFORE the
// transition becomes observable — a fetch whose record cannot be appended
// fails rather than serving an unpersisted list. internal/durable's WAL
// implements it; the interface lives here so osn does not import its own
// persistence layer.
//
// Implementations must not call back into the Client: RecordFetch and
// RecordUpgrade run under a shard lock and the repo's lock-ordering rules
// (shard lock → ledger mutex, nothing else) apply.
type Journal interface {
	// RecordFetch persists one committed fetch: billed reports whether the
	// commit bills a unique query (demand path) or stays speculative, tenant
	// names the paying account ("" = anonymous). The client journals
	// Response{User: v, Neighbors: list}; Attrs stays zero, because the
	// cache holds neighbor lists only.
	RecordFetch(v graph.NodeID, resp Response, billed bool, tenant string) error
	// RecordUpgrade persists a speculative entry's promotion to billed on
	// first demand consumption.
	RecordUpgrade(v graph.NodeID, tenant string) error
	// RecordBudget and RecordTenantBudget persist budget changes so a
	// recovered ledger enforces the same caps.
	RecordBudget(n int64) error
	RecordTenantBudget(tenant string, n int64) error
}

// SetJournal installs j as the client's durability hook. It is NOT safe to
// call concurrently with queries — install at construction time, after
// seeding (SeedCached/SeedBill deliberately do not journal: they replay
// state the journal already holds).
func (c *Client) SetJournal(j Journal) { c.journal = j }

// Journaled reports whether a journal is installed.
func (c *Client) Journaled() bool { return c.journal != nil }

// SeedCached inserts a recovered neighbor list into the cache and ledger
// without journaling: replayed WAL entries are cache hits, never re-billed
// and never re-persisted. billed mirrors the original commit's demand flag; tenant the
// original paying account. Like SetJournal, seeding is construction-time
// only — not safe concurrently with queries, and the id must not already be
// cached (the caller replays a journal, in which each id's last fetch record
// is unique).
func (c *Client) SeedCached(v graph.NodeID, nbrs []graph.NodeID, billed bool, tenant string) {
	c.state.Locked(v, func(s store.LockedShard[graph.NodeID, nodeState]) {
		s.Put(v, nodeState{nbrs: nbrs, cached: true, speculative: !billed})
		if billed {
			c.noteVisible(nbrs)
		}
	})
	c.led.mu.Lock()
	defer c.led.mu.Unlock()
	if billed {
		c.led.unique++
		c.led.tenantLocked(tenant).unique++
	} else {
		c.led.speculative++
	}
	c.led.size++
}

// SeedBill adds n recovered unique queries to tenant's bill (and the global
// counter) without any cache entry — the replayed ledger's tombstoned
// fetches: queries that were billed but whose cached rows were later
// invalidated. Construction-time only, like SeedCached.
func (c *Client) SeedBill(tenant string, n int64) {
	c.led.mu.Lock()
	defer c.led.mu.Unlock()
	c.led.unique += n
	c.led.tenantLocked(tenant).unique += n
}

// journalFetch runs the persist-before-publish barrier for one finished
// fetch. Called under v's shard lock, before the ledger is touched; an
// append failure is returned so the commit fails the fetch — nothing is
// cached, nothing billed, and the next demand retries.
func (c *Client) journalFetch(v graph.NodeID, f *inflight) error {
	if c.journal == nil || f.err != nil {
		return nil
	}
	if err := c.journal.RecordFetch(v, Response{User: v, Neighbors: f.nbrs}, f.demand > 0, f.tenant); err != nil {
		return fmt.Errorf("osn: journaling fetch: %w", err)
	}
	return nil
}
