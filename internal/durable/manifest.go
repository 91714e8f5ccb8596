package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// manifest is the atomically swapped root of a cache directory: which
// snapshot generation is current and which WAL segments are live. Every
// structural transition — segment rotation, compaction — commits by writing
// a new manifest through WriteFileAtomic, so a crash at any point leaves a
// directory whose manifest still names a complete, consistent set of files
// (leftover unreferenced files are debris, pruned at the next open).
type manifest struct {
	Version int    `json:"version"`
	Gen     uint64 `json:"gen"`
	// Snapshot and Meta name the compacted state of generation Gen, always
	// snapName(Gen) and metaName(Gen); both are empty while Gen == 0
	// (nothing compacted yet).
	Snapshot string `json:"snapshot,omitempty"`
	Meta     string `json:"meta,omitempty"`
	// Segments lists live WAL segment sequence numbers in append order; the
	// last one is the active segment, the rest are sealed.
	Segments []uint64 `json:"segments"`
	// NextSeq is the sequence number the next rotation will use.
	NextSeq uint64 `json:"next_seq"`
}

const (
	manifestName    = "MANIFEST.json"
	manifestVersion = 1
	lockName        = "LOCK"
)

func segmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }
func snapName(gen uint64) string    { return fmt.Sprintf("snap-%06d.csr", gen) }
func metaName(gen uint64) string    { return fmt.Sprintf("meta-%06d.bin", gen) }

// loadManifest reads and validates dir's manifest. ok is false when none
// exists (a fresh cache directory).
func loadManifest(dir string) (m manifest, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return m, false, nil
	}
	if err != nil {
		return m, false, fmt.Errorf("durable: reading manifest: %w", err)
	}
	m, err = decodeManifest(data)
	return m, err == nil, err
}

// decodeManifest parses and validates a manifest's bytes.
func decodeManifest(data []byte) (m manifest, err error) {
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("durable: decoding manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("durable: unsupported manifest version %d", m.Version)
	}
	if len(m.Segments) == 0 {
		return m, fmt.Errorf("durable: manifest lists no segments")
	}
	if !slices.IsSorted(m.Segments) || len(slices.Compact(slices.Clone(m.Segments))) != len(m.Segments) {
		return m, fmt.Errorf("durable: manifest segments not strictly increasing: %v", m.Segments)
	}
	if last := m.Segments[len(m.Segments)-1]; m.NextSeq <= last {
		return m, fmt.Errorf("durable: manifest next_seq %d not above active segment %d", m.NextSeq, last)
	}
	// Recovery opens the named files and compaction later deletes them, so
	// only the names the writer produces are accepted: any other name could
	// reach outside the cache directory.
	var snap, meta string
	if m.Gen > 0 {
		snap, meta = snapName(m.Gen), metaName(m.Gen)
	}
	if m.Snapshot != snap || m.Meta != meta {
		return m, fmt.Errorf("durable: manifest generation %d names snapshot %q / meta %q, want %q / %q", m.Gen, m.Snapshot, m.Meta, snap, meta)
	}
	return m, nil
}

// saveManifest commits m as dir's manifest via the fsync'd atomic-rename
// helper.
func saveManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("durable: encoding manifest: %w", err)
	}
	return WriteFileAtomic(filepath.Join(dir, manifestName), data, 0o644)
}
