package rewire

import (
	"context"
	"fmt"
	"net/url"

	"rewire/internal/durable"
)

// DurableCacheStats describes a durable cache's recovered and live state —
// entries seeded at open, WAL records replayed, snapshot generation, live
// segment count. See Provider.DurableCacheStats.
type DurableCacheStats = durable.Stats

// AttachDurableCache persists the provider's demand-billed cache in a
// write-ahead-logged directory: it opens (creating if needed) dir, replays
// its recovered state — cached neighbor lists, billing ledger, budgets —
// into the provider, and journals every committed fetch before it is served
// from now on. A background compactor folds sealed log segments into binary
// CSR snapshots, and reopening the directory — after a clean shutdown or a
// SIGKILL mid-crawl — warm-starts the cache and the ledger exactly. A
// replayed entry is a cache hit, never re-billed, so a resumed same-seed
// crawl replays its trajectory byte-identically at near-zero marginal query
// cost.
//
// It must run before the provider serves any query: the replay seeds a
// still-empty cache. The directory is flock'd: one process at a time. A
// provider carries at most one durable cache; Close closes it with the
// provider. Open(ctx, "cache:DIR?src=URL") is the equivalent spelling that
// wraps any registered backend scheme.
func (p *Provider) AttachDurableCache(dir string) error {
	return p.attachDurable(dir, durable.Options{})
}

func (p *Provider) attachDurable(dir string, opt durable.Options) error {
	if p.durable != nil {
		return fmt.Errorf("rewire: provider already has a durable cache")
	}
	c, err := durable.Open(dir, opt)
	if err != nil {
		return err
	}
	if err := c.Attach(p.client); err != nil {
		c.Close()
		return err
	}
	p.durable = c
	return nil
}

// DurableCacheStats returns the durable cache's counters; ok is false when
// the provider has none.
func (p *Provider) DurableCacheStats() (DurableCacheStats, bool) {
	if p.durable == nil {
		return DurableCacheStats{}, false
	}
	return p.durable.Stats(), true
}

// CompactDurableCache synchronously folds every sealed WAL segment into a
// fresh snapshot generation (a no-op without a durable cache, and when there
// is nothing to fold). The background compactor does this on its own as
// segments seal; call it explicitly to bound reopen replay time before a
// planned shutdown.
func (p *Provider) CompactDurableCache() error {
	if p.durable == nil {
		return nil
	}
	return p.durable.Compact()
}

// cacheBackend is the backend the cache: driver produces: it delegates
// fetches to the inner backend untouched and carries the opened durable
// cache, which BackendSource attaches to the provider's client. The
// journaling itself happens at the client layer (where billing is decided),
// not here — the backend wrapper only ties the cache's lifetime to the
// backend chain's Close.
type cacheBackend struct {
	inner Backend
	cache *durable.Cache
}

func (b *cacheBackend) Fetch(ctx context.Context, ids []NodeID) ([][]NodeID, error) {
	return b.inner.Fetch(ctx, ids)
}

// Unwrap exposes the inner backend's capabilities (UserCounter,
// RateLimited, ...) through the standard probe chain.
func (b *cacheBackend) Unwrap() Backend { return b.inner }

// Close seals the WAL and releases the cache's snapshot mappings and
// directory lock. closeBackend also walks to the inner backend's Closer.
func (b *cacheBackend) Close() error { return b.cache.Close() }

// openCache implements the cache: driver scheme:
//
//	cache:/var/lib/rewire/crawl?src=https://host/graph
//	cache:./cachedir?src=sim:preset%3Fname=Epinions&fsync=1
//
// The opaque part (or path) is the cache directory; the required src
// parameter is the inner backend's URL, resolved recursively through the
// driver registry (URL-encode the inner URL's own query string). fsync=1
// forces an fsync per journaled record. The resulting Provider warm-starts
// from whatever a previous process persisted in the directory.
func openCache(ctx context.Context, u *url.URL) (Backend, error) {
	dir := u.Opaque
	if dir == "" {
		dir = u.Path
	}
	if dir == "" {
		return nil, fmt.Errorf("rewire: cache: needs a directory (cache:DIR?src=URL)")
	}
	q := u.Query()
	src := q.Get("src")
	if src == "" {
		return nil, fmt.Errorf("rewire: cache: needs src= naming the inner backend URL")
	}
	var opt durable.Options
	if q.Get("fsync") == "1" || q.Get("fsync") == "true" {
		opt.Fsync = true
	}
	inner, err := OpenBackend(ctx, src)
	if err != nil {
		return nil, err
	}
	c, err := durable.Open(dir, opt)
	if err != nil {
		closeBackend(inner)
		return nil, err
	}
	return &cacheBackend{inner: inner, cache: c}, nil
}
