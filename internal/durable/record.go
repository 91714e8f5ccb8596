package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// ErrCorrupt reports WAL or metadata bytes that cannot be decoded: torn
// frames, checksum mismatches, impossible lengths, unknown record types.
// Recovery treats a corrupt suffix of the ACTIVE segment as a torn write and
// truncates it; the same bytes in a sealed segment are data loss and fail
// the open.
var ErrCorrupt = errors.New("durable: corrupt record")

// recordType discriminates WAL records. Values are part of the on-disk
// format; never renumber.
type recordType uint8

const (
	// recFetch persists one committed neighbor-list fetch: id, billed flag,
	// tenant, user attributes, and the full neighbor row. Appended before the
	// client publishes the response, so an acknowledged fetch is always
	// recoverable.
	recFetch recordType = 1
	// recUpgrade marks a speculative (prefetched, unbilled) entry's promotion
	// to billed when a demand query first consumes it.
	recUpgrade recordType = 2
	// recTombstone invalidates a cached entry (future eviction/refresh path);
	// billing already accrued is untouched, mirroring the live ledger.
	recTombstone recordType = 3
	// recBudget and recTenantBudget persist ledger budget changes so a
	// reopened cache enforces the same caps.
	recBudget       recordType = 4
	recTenantBudget recordType = 5
	// recBarrier is written as the first record of the segment opened by a
	// compaction's rotation, carrying the generation the compactor is about
	// to produce. Replay ignores it — the manifest is authoritative — but it
	// cross-checks segment/manifest pairing in tests and post-mortems.
	recBarrier recordType = 6
)

const (
	recordVersion = 1
	// frameHeader is the per-record framing: uint32 payload length then
	// uint32 IEEE CRC-32 of the payload, both little-endian.
	frameHeader = 8
	// maxPayload bounds a frame's declared length so corrupt headers cannot
	// drive giant allocations during recovery.
	maxPayload = 1 << 26
)

// Record is one decoded WAL entry. Which fields are meaningful depends on
// Type; see the recordType constants.
type Record struct {
	Type      recordType
	User      graph.NodeID
	Neighbors []graph.NodeID
	Attrs     osn.UserAttrs
	Billed    bool
	Tenant    string
	Budget    int64
	Gen       uint64

	// row is a fetch's encoded neighbor section, set instead of Neighbors by
	// decodeHeader: the uvarint count and the ids, to the end of the
	// payload. decodeRow decodes and validates it.
	row []byte
}

// encodeFrame appends r's framed encoding — length, CRC, versioned payload —
// to dst and returns the extended slice.
func encodeFrame(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	p := len(dst)
	dst = append(dst, recordVersion, byte(r.Type))
	switch r.Type {
	case recFetch:
		dst = binary.AppendUvarint(dst, uint64(uint32(r.User)))
		var flags byte
		if r.Billed {
			flags |= 1
		}
		dst = append(dst, flags)
		dst = appendLenString(dst, r.Tenant)
		dst = binary.AppendUvarint(dst, uint64(r.Attrs.Age))
		dst = binary.AppendUvarint(dst, uint64(r.Attrs.DescLen))
		dst = binary.AppendUvarint(dst, uint64(r.Attrs.Posts))
		dst = binary.AppendUvarint(dst, uint64(len(r.Neighbors)))
		for _, n := range r.Neighbors {
			dst = binary.AppendUvarint(dst, uint64(uint32(n)))
		}
	case recUpgrade:
		dst = binary.AppendUvarint(dst, uint64(uint32(r.User)))
		dst = appendLenString(dst, r.Tenant)
	case recTombstone:
		dst = binary.AppendUvarint(dst, uint64(uint32(r.User)))
	case recBudget:
		dst = binary.AppendVarint(dst, r.Budget)
	case recTenantBudget:
		dst = appendLenString(dst, r.Tenant)
		dst = binary.AppendVarint(dst, r.Budget)
	case recBarrier:
		dst = binary.AppendUvarint(dst, r.Gen)
	}
	payload := dst[p:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

func appendLenString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// payloadReader decodes a record payload with sticky-error bounds checking:
// any short read, overlong or non-minimal varint, or out-of-range value
// poisons the reader and every subsequent read returns zero values. The
// encoders write minimal varints only, so a value decodes from exactly one
// byte string.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (r *payloadReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated payload")
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || !r.minimal(n) {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// minimal reports whether the n-byte varint at off is minimally encoded: a
// longer encoding of the same value ends in a zero byte.
func (r *payloadReader) minimal(n int) bool {
	return n == 1 || r.b[r.off+n-1] != 0
}

func (r *payloadReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 || !r.minimal(n) {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *payloadReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string length %d overruns payload", n)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *payloadReader) nodeID() graph.NodeID {
	v := r.uvarint()
	if r.err == nil && v > math.MaxInt32 {
		r.fail("node id %d outside the int32 space", v)
		return 0
	}
	return graph.NodeID(v)
}

// smallInt decodes a uvarint that must fit an int (attrs, counts).
func (r *payloadReader) smallInt() int {
	v := r.uvarint()
	if r.err == nil && v > math.MaxInt32 {
		r.fail("value %d out of range", v)
		return 0
	}
	return int(v)
}

// decodePayload decodes one record payload (the bytes covered by the frame
// CRC). The payload length is already bounded by maxPayload, and neighbor
// counts are checked against the remaining bytes, so corrupt input cannot
// force allocations beyond the payload's own size.
func decodePayload(p []byte) (Record, error) {
	rec, err := decodeHeader(p)
	if err == nil && rec.Type == recFetch {
		rec.Neighbors, err = decodeRow(nil, rec.row)
		rec.row = nil
	}
	return rec, err
}

// decodeHeader decodes a payload like decodePayload, except that a fetch's
// neighbor section is left encoded in Record.row for decodeRow.
func decodeHeader(p []byte) (Record, error) {
	r := payloadReader{b: p}
	var rec Record
	if v := r.byte(); r.err == nil && v != recordVersion {
		return rec, fmt.Errorf("%w: unknown record version %d", ErrCorrupt, v)
	}
	rec.Type = recordType(r.byte())
	switch rec.Type {
	case recFetch:
		rec.User = r.nodeID()
		rec.Billed = r.byte()&1 != 0
		rec.Tenant = r.str()
		rec.Attrs.Age = r.smallInt()
		rec.Attrs.DescLen = r.smallInt()
		rec.Attrs.Posts = r.smallInt()
		if r.err == nil {
			rec.row, r.off = r.b[r.off:], len(r.b)
		}
	case recUpgrade:
		rec.User = r.nodeID()
		rec.Tenant = r.str()
	case recTombstone:
		rec.User = r.nodeID()
	case recBudget:
		rec.Budget = r.varint()
	case recTenantBudget:
		rec.Tenant = r.str()
		rec.Budget = r.varint()
	case recBarrier:
		rec.Gen = r.uvarint()
	default:
		if r.err == nil {
			r.fail("unknown record type %d", rec.Type)
		}
	}
	if r.err != nil {
		return rec, r.err
	}
	if r.off != len(p) {
		return rec, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p)-r.off)
	}
	return rec, nil
}

// decodeRow decodes a fetch's encoded neighbor section (see Record.row) into
// dst[:0] and returns the extended slice. The count must not exceed the bytes
// after it, so a corrupt count cannot force an allocation beyond the row's
// own size, and no bytes may follow the last id.
func decodeRow(dst []graph.NodeID, b []byte) ([]graph.NodeID, error) {
	r := payloadReader{b: b}
	n := r.uvarint()
	if r.err == nil && n > uint64(len(b)-r.off) {
		r.fail("neighbor count %d overruns payload", n)
	}
	if r.err != nil {
		return dst[:0], r.err
	}
	dst = slices.Grow(dst[:0], int(n))
	for i := uint64(0); i < n && r.err == nil; i++ {
		dst = append(dst, r.nodeID())
	}
	if r.err == nil && r.off != len(b) {
		r.fail("%d trailing payload bytes", len(b)-r.off)
	}
	if r.err != nil {
		return dst[:0], r.err
	}
	return dst, nil
}

// replaySegment scans one segment's records in order, invoking fn for each.
// tail selects torn-end handling: for the active segment (true), any
// malformed suffix — short frame, bad CRC, undecodable payload — ends the
// scan cleanly and valid reports the byte length of the intact prefix (the
// caller truncates to it); for sealed segments (false) the same suffix is
// corruption and errors. An error from fn aborts the scan outright.
func replaySegment(data []byte, tail bool, fn func(Record) error) (valid int64, err error) {
	return scanSegment(data, tail, decodePayload, fn)
}

// countFrames returns how many frames lead data before the first frame whose
// length field is out of bounds, reading length fields only: at least as
// many as a scan of data yields records, and exactly as many for an intact
// segment.
func countFrames(data []byte) int {
	n := 0
	for off := 0; len(data)-off >= frameHeader; n++ {
		plen := binary.LittleEndian.Uint32(data[off:])
		if plen < 2 || plen > maxPayload || int64(plen) > int64(len(data)-off-frameHeader) {
			break
		}
		off += frameHeader + int(plen)
	}
	return n
}

// scanSegment is replaySegment with the payload decoder as a parameter: the
// compactor passes decodeHeader, so that only rows it keeps are decoded.
func scanSegment(data []byte, tail bool, decode func([]byte) (Record, error), fn func(Record) error) (valid int64, err error) {
	off := 0
	torn := func(reason error) (int64, error) {
		if tail {
			return int64(off), nil
		}
		return int64(off), fmt.Errorf("sealed segment byte %d: %w", off, reason)
	}
	for off < len(data) {
		if len(data)-off < frameHeader {
			return torn(fmt.Errorf("%w: torn frame header", ErrCorrupt))
		}
		plen := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen < 2 || plen > maxPayload || int64(plen) > int64(len(data)-off-frameHeader) {
			return torn(fmt.Errorf("%w: frame length %d outside [2, %d] or past segment end", ErrCorrupt, plen, maxPayload))
		}
		payload := data[off+frameHeader : off+frameHeader+int(plen)]
		if crc32.ChecksumIEEE(payload) != crc {
			return torn(fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt))
		}
		rec, derr := decode(payload)
		if derr != nil {
			return torn(derr)
		}
		if err := fn(rec); err != nil {
			return int64(off), err
		}
		off += frameHeader + int(plen)
	}
	return int64(off), nil
}
