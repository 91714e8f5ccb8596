package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
)

// SnapshotAppender streams a version-2 (directed) snapshot into a file one
// row at a time, in ascending node-id order, without holding the adjacency
// in memory: the header and offsets region are reserved up front, neighbor
// rows append sequentially behind them, and Finish back-fills both regions
// with a WriteAt. This is the incremental-append path the durable cache's
// compactor uses to fold a crawl larger than RAM into snapshot form — only
// the offsets array (4·(numNodes+1) bytes) is resident.
//
// Nodes skipped between appends get empty rows, so a sparse crawl over a
// large id space serializes without materializing the gaps.
type SnapshotAppender struct {
	f        *os.File
	bw       *bufio.Writer
	offsets  []uint32
	next     NodeID // lowest id still appendable
	entries  int64
	finished bool
	row      []byte // the row being appended, encoded
}

// NewSnapshotAppender starts a directed snapshot of numNodes nodes in f,
// which must be empty and positioned at the start. The caller owns f and is
// responsible for syncing and closing it after Finish.
func NewSnapshotAppender(f *os.File, numNodes int) (*SnapshotAppender, error) {
	if numNodes < 0 || numNodes > math.MaxInt32 {
		return nil, fmt.Errorf("graph: snapshot appender: %d nodes outside the int32 id space", numNodes)
	}
	dataOff := int64(snapshotHeaderSize) + 4*(int64(numNodes)+1)
	if _, err := f.Seek(dataOff, 0); err != nil {
		return nil, fmt.Errorf("graph: snapshot appender: seeking past offsets region: %w", err)
	}
	return &SnapshotAppender{
		f:       f,
		bw:      bufio.NewWriterSize(f, 1<<16),
		offsets: make([]uint32, numNodes+1),
	}, nil
}

// Append writes v's neighbor row with one buffered write. Ids must arrive in
// strictly ascending order; gaps become empty rows.
func (a *SnapshotAppender) Append(v NodeID, nbrs []NodeID) error {
	if a.finished {
		return fmt.Errorf("graph: snapshot appender: append after Finish")
	}
	if v < a.next || int(v) >= len(a.offsets)-1 {
		return fmt.Errorf("graph: snapshot appender: node %d out of order or outside %d nodes", v, len(a.offsets)-1)
	}
	if a.entries+int64(len(nbrs)) > math.MaxInt32 {
		return fmt.Errorf("graph: snapshot appender: entry count exceeds the int32 bound")
	}
	for u := a.next; u <= v; u++ {
		a.offsets[u] = uint32(a.entries)
	}
	a.next = v + 1
	a.row = a.row[:0]
	for _, n := range nbrs {
		a.row = binary.LittleEndian.AppendUint32(a.row, uint32(n))
	}
	if _, err := a.bw.Write(a.row); err != nil {
		return err
	}
	a.entries += int64(len(nbrs))
	return nil
}

// Finish flushes the rows, then back-fills the offsets region and the
// version-2 header. The file is complete (but not yet synced) on return.
func (a *SnapshotAppender) Finish() error {
	if a.finished {
		return fmt.Errorf("graph: snapshot appender: double Finish")
	}
	a.finished = true
	for u := int(a.next); u < len(a.offsets); u++ {
		a.offsets[u] = uint32(a.entries)
	}
	if err := a.bw.Flush(); err != nil {
		return err
	}
	region := make([]byte, 4*len(a.offsets))
	for i, o := range a.offsets {
		binary.LittleEndian.PutUint32(region[4*i:], o)
	}
	if _, err := a.f.WriteAt(region, snapshotHeaderSize); err != nil {
		return fmt.Errorf("graph: snapshot appender: writing offsets: %w", err)
	}
	var hdr [snapshotHeaderSize]byte
	copy(hdr[0:8], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], snapshotVersionDirected)
	binary.LittleEndian.PutUint32(hdr[12:16], snapshotBOM)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(a.offsets)-1))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(a.entries))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(a.entries)) // directed: edges == entries
	binary.LittleEndian.PutUint32(hdr[40:44], crc32.ChecksumIEEE(hdr[:40]))
	if _, err := a.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("graph: snapshot appender: writing header: %w", err)
	}
	return nil
}
