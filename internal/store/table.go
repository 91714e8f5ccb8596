package store

import (
	"sync"
	"sync/atomic"
)

// Table geometry: an id's 32 bits split into a root index, an interior-page
// index and a leaf slot. A leaf page holds 1024 slots (8 KiB) and an interior
// page 4096 leaf pointers (32 KiB), so the first interior page alone covers
// ids 0..4M-1, and one id, however hostile, costs at most 40 KiB of pages.
const (
	leafBits  = 10
	innerBits = 12
	rootBits  = 32 - innerBits - leafBits
)

type (
	tableLeaf[T any]  [1 << leafBits]atomic.Pointer[T]
	tableInner[T any] [1 << innerBits]atomic.Pointer[tableLeaf[T]]
)

// Table is a fixed-depth radix table from int32 ids to *T. Pages are
// allocated on first use and never freed; every slot is an atomic pointer,
// so Load takes no lock and costs three dependent loads. Every int32 is a
// valid id — negative ones map through uint32 — so a provider cannot crash
// the table with an unexpected id, and one id can grow it by at most one
// interior and one leaf page.
//
// Store and Delete are safe for concurrent use with each other and with
// Load, but the table orders nothing beyond the single slot: callers that
// need read-modify-write sequences on an id serialize them themselves (the
// osn client does, with Stripes). The zero value is an empty table.
type Table[T any] struct {
	root [1 << rootBits]atomic.Pointer[tableInner[T]]
}

// Load returns the value stored under id, or nil.
func (t *Table[T]) Load(id int32) *T {
	k := uint32(id)
	in := t.root[k>>(innerBits+leafBits)].Load()
	if in == nil {
		return nil
	}
	leaf := in[k>>leafBits&(1<<innerBits-1)].Load()
	if leaf == nil {
		return nil
	}
	return leaf[k&(1<<leafBits-1)].Load()
}

// Store publishes v under id, allocating id's pages on first use. A reader
// that Loads v observes every write made to *v before the Store.
func (t *Table[T]) Store(id int32, v *T) {
	k := uint32(id)
	in := loadOrAlloc(&t.root[k>>(innerBits+leafBits)])
	leaf := loadOrAlloc(&in[k>>leafBits&(1<<innerBits-1)])
	leaf[k&(1<<leafBits-1)].Store(v)
}

// Delete clears id's slot; it never allocates.
func (t *Table[T]) Delete(id int32) {
	k := uint32(id)
	in := t.root[k>>(innerBits+leafBits)].Load()
	if in == nil {
		return
	}
	if leaf := in[k>>leafBits&(1<<innerBits-1)].Load(); leaf != nil {
		leaf[k&(1<<leafBits-1)].Store(nil)
	}
}

// loadOrAlloc returns the page behind p, installing a fresh one when there
// is none. Concurrent first users race a compare-and-swap, and the losers
// adopt the winner's page.
func loadOrAlloc[P any](p *atomic.Pointer[P]) *P {
	if pg := p.Load(); pg != nil {
		return pg
	}
	if pg := new(P); p.CompareAndSwap(nil, pg) {
		return pg
	}
	return p.Load()
}

// stripe pads one mutex to its own cache line, so lock traffic on one stripe
// does not false-share with its neighbors.
type stripe struct {
	sync.Mutex
	_ [64 - 8]byte
}

// Stripes is a power-of-two set of mutexes chosen by key: the lock side of a
// Table, serializing compound operations per key without a global mutex.
// Keys are mixed first, so dense ids spread and the stripe index is a mask.
type Stripes struct {
	s    []stripe
	mask uint64
}

// NewStripes returns n stripes rounded up to a power of two (n <= 0 selects
// DefaultShards()).
func NewStripes(n int) Stripes {
	n = ceilPow2(n)
	return Stripes{s: make([]stripe, n), mask: uint64(n - 1)}
}

// Of returns k's mutex.
func (s Stripes) Of(k int32) *sync.Mutex {
	return &s.s[mix(uint64(k))&s.mask].Mutex
}

// Len returns the stripe count (always a power of two).
func (s Stripes) Len() int { return len(s.s) }
