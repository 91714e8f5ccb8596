// Package durable is the crash-safe persistence layer behind the sampling
// client's neighbor cache: a write-ahead log of every committed fetch, a
// background compactor that folds sealed log segments into the graph
// package's binary CSR snapshot format, and recovery code that reopens the
// whole thing after any crash — including SIGKILL mid-write — with exact
// billing intact. A restarted crawl warm-starts from snapshot + WAL tail
// instead of re-querying the provider: every replayed entry is a cache hit,
// never re-billed.
//
// Layout of a cache directory:
//
//	MANIFEST.json     atomically swapped root: current snapshot generation
//	                  and the live WAL segment list
//	wal-XXXXXXXX.log  length-prefixed, CRC'd, versioned records (fetches,
//	                  speculative upgrades, tombstones, budget changes,
//	                  compaction barriers); the highest sequence number is
//	                  the active segment, earlier ones are sealed immutable.
//	                  On linux the active segment is preallocated past
//	                  Options.SegmentBytes and mapped shared, so an append is
//	                  a copy into the page cache; its file ends in zeros after
//	                  the last frame until sealing or Close truncates it
//	snap-XXXXXX.csr   compacted neighbor rows in the directed (version 2)
//	                  CSR snapshot format, mmap'd on linux
//	meta-XXXXXX.bin   billing metadata for the snapshot of the same
//	                  generation: per-entry billed/tenant/attrs plus
//	                  explicit ledger totals and budgets
//	LOCK              flock'd while a process has the cache open
//
// Closing the cache abandons a compaction in flight rather than waiting for
// it: the fold stops at its next check and deletes its temp file, and the
// manifest still names the previous generation.
//
// Recovery invariants: an append that returned success is never lost short
// of media failure (with Options.Fsync, not even then) — a store into the
// shared mapping is in the page cache, like a write(2), when append returns;
// an all-zero suffix after the last frame of the ACTIVE segment is the
// preallocated end of the log and is truncated without counting as torn; any
// other malformed suffix there is a torn tail and is truncated silently (the
// interrupted append was never acknowledged); corruption anywhere else fails
// the open loudly. Replay is idempotent — reopening without new writes
// reconstructs byte-identical state, and because the cache layer is
// transparent to walk trajectories, a resumed run continues exactly where the
// killed one stopped.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// Options tunes a cache; the zero value is production-ready.
type Options struct {
	// SegmentBytes seals the active WAL segment once it grows past this size
	// (default 4 MiB). Smaller segments compact sooner; larger ones amortize
	// rotation cost.
	SegmentBytes int64
	// CompactSegments triggers background compaction once this many sealed
	// segments accumulate beyond those a compaction in flight is folding
	// (default 4; negative disables the background compactor — Compact still
	// works when called explicitly).
	CompactSegments int
	// Fsync forces an fsync after every appended record. Off by default: an
	// append lands in the kernel's page cache before it returns (a copy into
	// the mapped active segment on linux, one write syscall elsewhere), so
	// acknowledged records survive process death (the crash mode the
	// recovery tests inject) without it;
	// turn it on to also survive kernel crashes and power loss, at a heavy
	// per-append latency cost. Segment seals, snapshots, and manifest swaps
	// are always fsync'd regardless.
	Fsync bool
	// CrashAfterAppends is a fault-injection hook for the crash tests: when
	// positive, the process SIGKILLs itself immediately after persisting
	// that many records — no deferred cleanup, no flushes, the closest
	// reproducible stand-in for power loss. Never set it in production.
	CrashAfterAppends int64
}

// Stats describes a cache's recovered and live state.
type Stats struct {
	// Entries is the number of cached users recovered at open.
	Entries int
	// Replayed is the number of WAL records replayed at open (the tail
	// beyond the last compacted snapshot).
	Replayed int
	// TornTail reports whether open truncated a torn active-segment tail.
	// Zeros after the last frame, the preallocated end of a mapped segment,
	// are truncated without counting as torn.
	TornTail bool
	// Gen is the current snapshot generation (0 = nothing compacted yet).
	Gen uint64
	// Segments is the live WAL segment count (sealed + active).
	Segments int
	// Compactions counts compactions completed since open.
	Compactions int64
	// Appends counts records appended since open.
	Appends int64
}

// Cache is an open durable cache directory. It implements osn.Journal: wire
// it behind a client with Attach, which replays the recovered state into the
// client's cache and ledger and then installs the journal hook.
//
// All methods are safe for concurrent use. Exactly one process may hold a
// directory open (flock-enforced on unix).
type Cache struct {
	dir  string
	opt  Options
	lock *dirLock

	mu          sync.Mutex
	man         manifest
	seg         *segment // active segment; nil once a failed rotation sealed it
	size        int64    // bytes of records in the active segment
	scratch     []byte
	closed      bool
	werr        error // sticky append failure: fail-stop
	cerr        error // last background compaction failure (surfaced by Close)
	snap        *graph.Snapshot
	oldSnaps    []*graph.Snapshot // superseded generations, kept mapped until Close (clients alias their rows)
	compacting  bool
	folding     int // sealed segments the compaction in flight folds
	attached    bool
	compactions int64
	appends     int64

	// Recovered state, built at Open and handed to the client by Attach.
	seedMeta *metaState
	seedTail map[graph.NodeID][]graph.NodeID
	stats    Stats

	trigger chan struct{}
	stop    chan struct{}
	done    chan struct{}

	// afterFold, when set, runs between a compaction's fold and its manifest
	// swap, so tests can race Close against a compaction in flight.
	afterFold func()
	// foldRows, when set, runs in fold's row loop every foldPollEvery rows
	// with the rows appended so far and the total, just before the fold
	// checks for Close, so tests can park a fold mid-way.
	foldRows func(done, total int)
}

// Open opens (creating if needed) the cache directory at dir, recovers its
// state — current snapshot, replayed WAL tail, torn-tail truncation — and
// starts the background compactor. The recovered cache is inert until
// Attach wires it behind a client.
func Open(dir string, opt Options) (*Cache, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 4 << 20
	}
	if opt.CompactSegments == 0 {
		opt.CompactSegments = 4
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating cache dir: %w", err)
	}
	lock, err := acquireDirLock(filepath.Join(dir, lockName))
	if err != nil {
		return nil, err
	}
	c := &Cache{
		dir:     dir,
		opt:     opt,
		lock:    lock,
		trigger: make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := c.recover(); err != nil {
		lock.release()
		return nil, err
	}
	go c.compactorLoop()
	return c, nil
}

// recover loads the manifest, opens the current snapshot generation, replays
// the WAL segments on top, truncates a torn active-segment tail, prunes
// debris from interrupted compactions, and opens the active segment for
// appending.
func (c *Cache) recover() error {
	man, ok, err := loadManifest(c.dir)
	if err != nil {
		return err
	}
	if !ok {
		man = manifest{Version: manifestVersion, Segments: []uint64{1}, NextSeq: 2}
		if err := saveManifest(c.dir, man); err != nil {
			return err
		}
	}
	c.man = man

	c.seedMeta = newMetaState(0)
	if man.Gen > 0 {
		snap, err := graph.OpenSnapshot(filepath.Join(c.dir, man.Snapshot))
		if err != nil {
			return fmt.Errorf("durable: opening snapshot %s: %w", man.Snapshot, err)
		}
		c.snap = snap
		data, err := os.ReadFile(filepath.Join(c.dir, man.Meta))
		if err != nil {
			return fmt.Errorf("durable: reading meta %s: %w", man.Meta, err)
		}
		m, err := decodeMeta(data, 0)
		if err != nil {
			return fmt.Errorf("durable: decoding meta %s: %w", man.Meta, err)
		}
		c.seedMeta = m
	}

	c.seedTail = make(map[graph.NodeID][]graph.NodeID)
	for i, seq := range man.Segments {
		path := filepath.Join(c.dir, segmentName(seq))
		active := i == len(man.Segments)-1
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) && active {
			// Rotation crashed between creating the file and the first
			// append, or the fresh manifest was saved before any segment
			// existed; the O_CREATE open below makes it.
			data = nil
		} else if err != nil {
			return fmt.Errorf("durable: reading segment %s: %w", segmentName(seq), err)
		}
		valid, err := replaySegment(data, active, func(r Record) error {
			c.seedMeta.apply(r)
			switch r.Type {
			case recFetch:
				c.seedTail[r.User] = r.Neighbors
			case recTombstone:
				delete(c.seedTail, r.User)
			}
			c.stats.Replayed++
			return nil
		})
		if err != nil {
			return fmt.Errorf("durable: replaying %s: %w", segmentName(seq), err)
		}
		if active && valid < int64(len(data)) {
			if err := os.Truncate(path, valid); err != nil {
				return fmt.Errorf("durable: truncating torn tail of %s: %w", segmentName(seq), err)
			}
			// Zeros after the last frame are the preallocated end of a
			// mapped segment, not a torn append.
			c.stats.TornTail = !allZero(data[valid:])
		}
	}

	// Every recovered entry must have a neighbor row somewhere: in the WAL
	// tail or inside the snapshot's id range.
	for id := range c.seedMeta.entries {
		if _, ok := c.seedTail[id]; ok {
			continue
		}
		if c.snap == nil || int(id) >= c.snap.NumNodes() {
			return fmt.Errorf("%w: entry %d has no neighbor row in snapshot or WAL", ErrCorrupt, id)
		}
	}

	if err := c.pruneDebris(); err != nil {
		return err
	}

	seg, size, err := openSegment(filepath.Join(c.dir, segmentName(man.Segments[len(man.Segments)-1])), false, c.reserve())
	if err != nil {
		return fmt.Errorf("durable: opening active segment: %w", err)
	}
	c.seg, c.size = seg, size
	c.stats.Entries = len(c.seedMeta.entries)
	c.stats.Gen = man.Gen
	c.stats.Segments = len(man.Segments)
	return nil
}

// pruneDebris removes files a crashed compaction or rotation left behind:
// anything matching the cache's naming patterns that the manifest does not
// reference. The manifest is the authority on what is live.
func (c *Cache) pruneDebris() error {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("durable: scanning cache dir: %w", err)
	}
	live := map[string]bool{manifestName: true, lockName: true}
	for _, seq := range c.man.Segments {
		live[segmentName(seq)] = true
	}
	if c.man.Gen > 0 {
		live[c.man.Snapshot] = true
		live[c.man.Meta] = true
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || live[name] {
			continue
		}
		stale := strings.Contains(name, ".tmp") ||
			(strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log")) ||
			(strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".csr")) ||
			(strings.HasPrefix(name, "meta-") && strings.HasSuffix(name, ".bin"))
		if stale {
			if err := os.Remove(filepath.Join(c.dir, name)); err != nil {
				return fmt.Errorf("durable: pruning debris %s: %w", name, err)
			}
		}
	}
	return nil
}

// Attach replays the recovered state into client — cache entries, ledger
// totals, budgets — and installs the cache as its journal. The client must
// be freshly constructed: empty cache, no journal. Construction-time only,
// before the client serves queries.
//
// Replayed neighbor rows that live in the snapshot are seeded zero-copy
// (views into the mmap), which is why superseded snapshot generations stay
// mapped until Close — and why the client must not be used after it.
func (c *Cache) Attach(client *osn.Client) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("durable: attach on closed cache")
	}
	if c.attached {
		return fmt.Errorf("durable: cache already attached to a client")
	}
	if client.Journaled() {
		return fmt.Errorf("durable: client already has a journal")
	}
	if client.CacheSize() != 0 {
		return fmt.Errorf("durable: client cache not empty (%d entries)", client.CacheSize())
	}
	seeded := make(map[string]int64)
	for id, e := range c.seedMeta.entries {
		nbrs, ok := c.seedTail[id]
		if !ok {
			row, err := c.snap.Neighbors(id)
			if err != nil {
				return fmt.Errorf("durable: reading snapshot row %d: %w", id, err)
			}
			nbrs = row
		}
		client.SeedCached(id, nbrs, e.billed, e.tenant)
		if e.billed {
			seeded[e.tenant]++
		}
	}
	// The explicit ledger totals cover bills whose entries were tombstoned;
	// top each tenant up to its recorded count.
	for tenant, want := range c.seedMeta.unique {
		if d := want - seeded[tenant]; d > 0 {
			client.SeedBill(tenant, d)
		}
	}
	if c.seedMeta.budget != 0 {
		client.SetBudget(c.seedMeta.budget)
	}
	for tenant, n := range c.seedMeta.tenantBudget {
		client.SetTenantBudget(tenant, n)
	}
	client.SetJournal(c)
	c.attached = true
	// The client owns the seeded rows now; compaction re-reads segments and
	// meta from disk, so the recovery images are dead weight.
	c.seedTail = nil
	c.seedMeta = nil
	return nil
}

// RecordFetch implements osn.Journal.
func (c *Cache) RecordFetch(v graph.NodeID, resp osn.Response, billed bool, tenant string) error {
	return c.append(Record{Type: recFetch, User: v, Neighbors: resp.Neighbors, Attrs: resp.Attrs, Billed: billed, Tenant: tenant})
}

// RecordUpgrade implements osn.Journal.
func (c *Cache) RecordUpgrade(v graph.NodeID, tenant string) error {
	return c.append(Record{Type: recUpgrade, User: v, Tenant: tenant})
}

// RecordBudget implements osn.Journal.
func (c *Cache) RecordBudget(n int64) error {
	return c.append(Record{Type: recBudget, Budget: n})
}

// RecordTenantBudget implements osn.Journal.
func (c *Cache) RecordTenantBudget(tenant string, n int64) error {
	return c.append(Record{Type: recTenantBudget, Tenant: tenant, Budget: n})
}

// append frames and writes one record to the active segment, rotating and
// triggering compaction at the configured thresholds. A write failure is
// sticky: the cache fail-stops (every later append reports the first error)
// rather than risking a gap in the log.
func (c *Cache) append(r Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errClosed
	}
	if c.werr != nil {
		return c.werr
	}
	c.scratch = encodeFrame(c.scratch[:0], r)
	if err := c.seg.writeAt(c.scratch, c.size); err != nil {
		c.werr = fmt.Errorf("durable: wal append: %w", err)
		return c.werr
	}
	c.size += int64(len(c.scratch))
	if c.opt.Fsync {
		if err := c.seg.f.Sync(); err != nil {
			c.werr = fmt.Errorf("durable: wal fsync: %w", err)
			return c.werr
		}
	}
	c.appends++
	c.stats.Appends++
	if c.opt.CrashAfterAppends > 0 && c.appends >= c.opt.CrashAfterAppends {
		crashSelf()
	}
	if c.size >= c.opt.SegmentBytes {
		if err := c.rotateLocked(0); err != nil {
			c.werr = err
			return c.werr
		}
		// Segments the compaction in flight is folding stay in the manifest
		// until its swap; counting them would queue a second compaction for
		// every seal during the fold, rewriting the snapshot for one or two
		// new segments.
		if c.opt.CompactSegments > 0 && len(c.man.Segments)-1-c.folding >= c.opt.CompactSegments {
			select {
			case c.trigger <- struct{}{}:
			default:
			}
		}
	}
	return nil
}

// rotateLocked seals the active segment (unmap, truncate to its records,
// fsync, close) and opens a fresh one, committing the new segment list
// through the manifest before any record lands in it. barrierGen > 0 stamps
// the fresh segment with a compaction barrier record. Callers hold c.mu and
// make a failure sticky in c.werr: the sealed segment is gone, and c.seg is
// nil until a fresh one is committed.
func (c *Cache) rotateLocked(barrierGen uint64) error {
	seg := c.seg
	c.seg = nil
	if err := seg.close(c.size); err != nil {
		return fmt.Errorf("durable: sealing segment: %w", err)
	}
	seq := c.man.NextSeq
	next, _, err := openSegment(filepath.Join(c.dir, segmentName(seq)), true, c.reserve())
	if err != nil {
		return fmt.Errorf("durable: opening segment %d: %w", seq, err)
	}
	man := c.man
	man.Segments = append(append([]uint64(nil), c.man.Segments...), seq)
	man.NextSeq = seq + 1
	if err := saveManifest(c.dir, man); err != nil {
		next.close(0)
		return err
	}
	c.man = man
	c.seg, c.size = next, 0
	c.stats.Segments = len(man.Segments)
	if barrierGen > 0 {
		c.scratch = encodeFrame(c.scratch[:0], Record{Type: recBarrier, Gen: barrierGen})
		if err := c.seg.writeAt(c.scratch, 0); err != nil {
			return fmt.Errorf("durable: writing compaction barrier: %w", err)
		}
		c.size += int64(len(c.scratch))
	}
	return nil
}

// reserve is the room a fresh active segment is mapped with: the rotation
// threshold plus slack for the record that crosses it.
func (c *Cache) reserve() int64 { return c.opt.SegmentBytes + segmentSlack }

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// Dir returns the cache's directory path.
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Gen = c.man.Gen
	s.Segments = len(c.man.Segments)
	s.Compactions = c.compactions
	return s
}

// Close stops the compactor, seals the active segment, releases the snapshot
// mappings and the directory lock. A background compaction in flight is
// abandoned at its fold's next check, not waited for (see Compact), and is
// not an error. Cached neighbor rows seeded from the snapshot are views into
// the mappings and die with them: close the cache only when its client is
// done. Idempotent; returns the first error, including any earlier
// background compaction failure.
func (c *Cache) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.stop)
	c.mu.Unlock()
	<-c.done

	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if c.seg != nil {
		keep(c.seg.close(c.size))
		c.seg = nil
	}
	if c.snap != nil {
		keep(c.snap.Close())
		c.snap = nil
	}
	for _, s := range c.oldSnaps {
		keep(s.Close())
	}
	c.oldSnaps = nil
	keep(c.cerr)
	keep(c.lock.release())
	return first
}
