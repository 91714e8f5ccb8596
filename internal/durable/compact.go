package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"rewire/internal/graph"
)

// errClosed reports an operation on a closed cache. A background compaction
// that Close overtakes also ends with it (as errClosedDuringCompaction): its
// files are debris for the next open to prune, not a failure.
var errClosed = errors.New("durable: cache closed")

// errClosedDuringCompaction ends a compaction that Close overtook, whether
// mid-fold or between the fold and the manifest swap.
var errClosedDuringCompaction = fmt.Errorf("%w during compaction", errClosed)

// compactorLoop is the background half of compaction: it waits for append to
// signal that enough sealed segments have accumulated, folds them, and goes
// back to sleep. Close stops it and collects the last error; a compaction
// abandoned because Close won the race is not one.
func (c *Cache) compactorLoop() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.trigger:
		}
		if err := c.Compact(); err != nil && !errors.Is(err, errClosed) {
			c.mu.Lock()
			c.cerr = err
			c.mu.Unlock()
		}
	}
}

// Compact folds every sealed WAL segment, together with the current
// snapshot generation, into a new snapshot + meta pair, then swaps the
// manifest and deletes the folded files. Appends proceed concurrently (they
// land in the active segment, which is never folded). The fold re-reads
// everything from disk — old meta, old snapshot rows, sealed segments — so
// compaction memory is bounded by the sealed WAL size plus the offsets
// array, not the total cache size. Each surviving WAL row stays encoded in
// its segment's bytes until the fold appends it to the snapshot, and is
// decoded then, once, into one reused buffer; superseded and tombstoned rows
// are never decoded.
//
// A failure to seal the active segment or open the next one is sticky, as
// in append: every later append returns it.
//
// Crash safety: the new snapshot and meta files commit via fsync'd
// temp-and-rename before the manifest swap, and the swap itself is atomic —
// a crash at any instant leaves the manifest naming either the old complete
// generation (new files become debris, pruned at open) or the new one
// (folded files become debris). Safe to call concurrently; a second call
// while one runs is a no-op.
//
// Close overtakes a compaction in flight: the fold stops at its next check
// (between segments, every foldPollEvery records or rows, before each
// commit), removes its temp file, and Compact returns errClosed wrapped as
// "during compaction". The manifest is never swapped, so the previous
// generation and the sealed segments stay authoritative.
func (c *Cache) Compact() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errClosed
	}
	if c.compacting {
		c.mu.Unlock()
		return nil
	}
	if c.werr != nil {
		err := c.werr
		c.mu.Unlock()
		return err
	}
	c.compacting = true
	defer func() {
		c.mu.Lock()
		c.compacting = false
		c.folding = 0
		c.mu.Unlock()
	}()
	gen := c.man.Gen
	if c.size == 0 && len(c.man.Segments) == 1 {
		// One empty active segment: nothing to fold.
		c.mu.Unlock()
		return nil
	}
	if c.size > 0 {
		// Seal the active segment (stamping the new generation's barrier)
		// so the sealed set below contains every record appended so far.
		if err := c.rotateLocked(gen + 1); err != nil {
			// The sealed segment is closed and no fresh one is committed:
			// fail-stop exactly as a rotation inside append does.
			c.werr = err
			c.mu.Unlock()
			return err
		}
	}
	sealed := append([]uint64(nil), c.man.Segments[:len(c.man.Segments)-1]...)
	c.folding = len(sealed)
	snap := c.snap
	oldSnapName, oldMetaName := c.man.Snapshot, c.man.Meta
	c.mu.Unlock()

	if len(sealed) == 0 {
		return nil
	}
	newGen := gen + 1
	if err := c.fold(newGen, sealed, snap, oldMetaName); err != nil {
		return err
	}
	if c.afterFold != nil {
		c.afterFold()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		// Close won the race; the new generation's files are debris for the
		// next open to prune.
		return errClosedDuringCompaction
	}
	man := c.man
	man.Gen = newGen
	man.Snapshot = snapName(newGen)
	man.Meta = metaName(newGen)
	live := make([]uint64, 0, len(c.man.Segments))
	folded := make(map[uint64]bool, len(sealed))
	for _, seq := range sealed {
		folded[seq] = true
	}
	for _, seq := range c.man.Segments {
		if !folded[seq] {
			live = append(live, seq)
		}
	}
	man.Segments = live
	newSnap, err := graph.OpenSnapshot(filepath.Join(c.dir, man.Snapshot))
	if err != nil {
		return fmt.Errorf("durable: reopening compacted snapshot: %w", err)
	}
	if err := saveManifest(c.dir, man); err != nil {
		newSnap.Close()
		return err
	}
	c.man = man
	if c.snap != nil {
		// Superseded, but clients hold zero-copy views into its rows: keep
		// the mapping alive until Close. The file itself can be unlinked —
		// POSIX keeps mapped pages valid with no directory entry.
		c.oldSnaps = append(c.oldSnaps, c.snap)
	}
	c.snap = newSnap
	c.compactions++
	c.stats.Gen = man.Gen
	c.stats.Segments = len(man.Segments)
	// Folded inputs are garbage now; removal is best-effort (leftovers are
	// pruned at the next open).
	for _, seq := range sealed {
		os.Remove(filepath.Join(c.dir, segmentName(seq)))
	}
	if oldSnapName != "" {
		os.Remove(filepath.Join(c.dir, oldSnapName))
		os.Remove(filepath.Join(c.dir, oldMetaName))
	}
	return nil
}

// foldPollEvery is how many replayed records or appended rows fold handles
// between checks for Close.
const foldPollEvery = 4096

// stopping reports whether Close has begun.
func (c *Cache) stopping() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// fold builds generation newGen on disk: old meta + old snapshot rows +
// sealed segments → snap-<gen>.csr + meta-<gen>.bin, both committed with
// fsync'd renames. No cache state is touched — the caller swaps the manifest.
//
// Close abandons a fold in flight: fold checks for it between segments,
// every foldPollEvery records and rows, and before each commit, and then
// removes its temp file and returns errClosedDuringCompaction. The manifest
// still names the previous generation, so nothing is lost; a snapshot
// committed before the check is debris the next open prunes.
func (c *Cache) fold(newGen uint64, sealed []uint64, snap *graph.Snapshot, oldMetaName string) error {
	// Read every sealed segment first: the surviving rows point into these
	// bytes until they are appended anyway, and their frame count bounds the
	// records the two maps below take in, so each map is sized once.
	segs := make([][]byte, len(sealed))
	records := 0
	for i, seq := range sealed {
		if c.stopping() {
			return errClosedDuringCompaction
		}
		data, err := os.ReadFile(filepath.Join(c.dir, segmentName(seq)))
		if err != nil {
			return fmt.Errorf("durable: reading segment for fold: %w", err)
		}
		segs[i] = data
		records += countFrames(data)
	}
	base := newMetaState(records)
	if oldMetaName != "" {
		data, err := os.ReadFile(filepath.Join(c.dir, oldMetaName))
		if err != nil {
			return fmt.Errorf("durable: reading meta for fold: %w", err)
		}
		if base, err = decodeMeta(data, records); err != nil {
			return fmt.Errorf("durable: decoding meta for fold: %w", err)
		}
	}
	// walRows holds each surviving fetch's encoded neighbor section, a
	// sub-slice of its segment's bytes.
	walRows := make(map[graph.NodeID][]byte, records)
	replayed := 0
	for i, data := range segs {
		if c.stopping() {
			return errClosedDuringCompaction
		}
		if _, err := scanSegment(data, false, decodeHeader, func(r Record) error {
			if replayed++; replayed%foldPollEvery == 0 && c.stopping() {
				return errClosedDuringCompaction
			}
			base.apply(r)
			switch r.Type {
			case recFetch:
				walRows[r.User] = r.row
			case recTombstone:
				delete(walRows, r.User)
			}
			return nil
		}); err != nil {
			if errors.Is(err, errClosed) {
				return err
			}
			return fmt.Errorf("durable: folding %s: %w", segmentName(sealed[i]), err)
		}
	}

	ids := base.sortedIDs()
	numNodes := 0
	if len(ids) > 0 {
		numNodes = int(ids[len(ids)-1]) + 1
	}
	f, err := os.CreateTemp(c.dir, snapName(newGen)+".tmp*")
	if err != nil {
		return fmt.Errorf("durable: creating snapshot temp: %w", err)
	}
	abandon := func(err error) error {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	app, err := graph.NewSnapshotAppender(f, numNodes)
	if err != nil {
		return abandon(err)
	}
	var row []graph.NodeID
	for i, id := range ids {
		if i%foldPollEvery == 0 {
			if c.foldRows != nil {
				c.foldRows(i, len(ids))
			}
			if c.stopping() {
				return abandon(errClosedDuringCompaction)
			}
		}
		var nbrs []graph.NodeID
		if enc, ok := walRows[id]; ok {
			if row, err = decodeRow(row, enc); err != nil {
				return abandon(fmt.Errorf("durable: folding WAL row %d: %w", id, err))
			}
			nbrs = row
		} else if nbrs, err = snap.Neighbors(id); err != nil {
			return abandon(fmt.Errorf("durable: folding snapshot row %d: %w", id, err))
		}
		if err := app.Append(id, nbrs); err != nil {
			return abandon(err)
		}
	}
	if err := app.Finish(); err != nil {
		return abandon(err)
	}
	if c.stopping() {
		return abandon(errClosedDuringCompaction)
	}
	if err := CommitFile(f, filepath.Join(c.dir, snapName(newGen))); err != nil {
		return err
	}
	if c.stopping() {
		return errClosedDuringCompaction
	}
	return WriteFileAtomic(filepath.Join(c.dir, metaName(newGen)), encodeMeta(base), 0o644)
}
