package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// metaEntry is the billing metadata for one cached user: whether the fetch
// was demand-billed (vs speculative prefetch), which tenant paid, and the
// user attributes (the neighbor row itself lives in the snapshot or WAL).
type metaEntry struct {
	billed bool
	tenant string
	attrs  osn.UserAttrs
}

// metaState is the folded view of a cache's billing ledger: per-entry
// metadata plus explicit unique-query totals and budgets. The totals are
// stored explicitly — not derived from live entries — because tombstones
// remove entries without refunding the queries that fetched them, exactly as
// the live ledger never decrements unique counts.
type metaState struct {
	entries map[graph.NodeID]metaEntry
	// unique maps tenant ("" = anonymous) to billed unique queries. The
	// global counter is the sum — an invariant the client ledger shares.
	unique       map[string]int64
	budget       int64
	tenantBudget map[string]int64
}

// newMetaState returns an empty state whose entries map holds n entries
// without growing.
func newMetaState(n int) *metaState {
	return &metaState{
		entries:      make(map[graph.NodeID]metaEntry, n),
		unique:       make(map[string]int64),
		tenantBudget: make(map[string]int64),
	}
}

// apply folds one replayed WAL record into the state, mirroring the client's
// live billing transitions exactly: every billed fetch and every speculative
// upgrade increments the paying tenant's unique count; tombstones drop the
// entry but never the accrued bill.
func (m *metaState) apply(r Record) {
	switch r.Type {
	case recFetch:
		m.entries[r.User] = metaEntry{billed: r.Billed, tenant: r.Tenant, attrs: r.Attrs}
		if r.Billed {
			m.unique[r.Tenant]++
		}
	case recUpgrade:
		if e, ok := m.entries[r.User]; ok && !e.billed {
			e.billed = true
			e.tenant = r.Tenant
			m.entries[r.User] = e
			m.unique[r.Tenant]++
		}
	case recTombstone:
		delete(m.entries, r.User)
	case recBudget:
		m.budget = r.Budget
	case recTenantBudget:
		if r.Budget == 0 {
			delete(m.tenantBudget, r.Tenant)
		} else {
			m.tenantBudget[r.Tenant] = r.Budget
		}
	case recBarrier:
		// Informational; the manifest names the authoritative generation.
	}
}

// sortedIDs returns the live entry ids in ascending order — the order the
// snapshot compactor appends rows.
func (m *metaState) sortedIDs() []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(m.entries))
	for id := range m.entries {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Meta file format: "RWIRMET1" magic, then a versioned body, then an IEEE
// CRC-32 of everything before it. The body interns tenant names in a sorted
// string table and stores entries sorted by id, so identical states encode
// to identical bytes (byte-stable across map iteration order). The encoding
// is canonical: decodeMeta accepts only what encodeMeta writes — sorted,
// duplicate-free sections, every interned tenant in use, no zero unique
// counts — so an accepted file re-encodes to itself.
const (
	metaMagic   = "RWIRMET1"
	metaVersion = 1
)

func encodeMeta(m *metaState) []byte {
	tenantSet := make(map[string]struct{})
	for _, e := range m.entries {
		tenantSet[e.tenant] = struct{}{}
	}
	for t, n := range m.unique {
		if n != 0 {
			tenantSet[t] = struct{}{}
		}
	}
	for t := range m.tenantBudget {
		tenantSet[t] = struct{}{}
	}
	tenants := make([]string, 0, len(tenantSet))
	for t := range tenantSet {
		tenants = append(tenants, t)
	}
	slices.Sort(tenants)
	idx := make(map[string]uint64, len(tenants))
	for i, t := range tenants {
		idx[t] = uint64(i)
	}

	b := []byte(metaMagic)
	b = binary.AppendUvarint(b, metaVersion)
	b = binary.AppendVarint(b, m.budget)
	b = binary.AppendUvarint(b, uint64(len(tenants)))
	for _, t := range tenants {
		b = appendLenString(b, t)
	}
	var uniques, budgets []string
	for t, n := range m.unique {
		if n != 0 {
			uniques = append(uniques, t)
		}
	}
	for t := range m.tenantBudget {
		budgets = append(budgets, t)
	}
	slices.Sort(uniques)
	slices.Sort(budgets)
	b = binary.AppendUvarint(b, uint64(len(uniques)))
	for _, t := range uniques {
		b = binary.AppendUvarint(b, idx[t])
		b = binary.AppendVarint(b, m.unique[t])
	}
	b = binary.AppendUvarint(b, uint64(len(budgets)))
	for _, t := range budgets {
		b = binary.AppendUvarint(b, idx[t])
		b = binary.AppendVarint(b, m.tenantBudget[t])
	}
	ids := m.sortedIDs()
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		e := m.entries[id]
		b = binary.AppendUvarint(b, uint64(uint32(id)))
		var flags byte
		if e.billed {
			flags |= 1
		}
		b = append(b, flags)
		b = binary.AppendUvarint(b, idx[e.tenant])
		b = binary.AppendUvarint(b, uint64(e.attrs.Age))
		b = binary.AppendUvarint(b, uint64(e.attrs.DescLen))
		b = binary.AppendUvarint(b, uint64(e.attrs.Posts))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeMeta decodes an encoded meta. Its entries map is sized for the
// meta's own entries plus room more, so a caller about to apply that many
// records (a fold) grows it no further.
func decodeMeta(data []byte, room int) (*metaState, error) {
	if len(data) < len(metaMagic)+4 {
		return nil, fmt.Errorf("%w: meta file %d bytes", ErrCorrupt, len(data))
	}
	if string(data[:len(metaMagic)]) != metaMagic {
		return nil, fmt.Errorf("%w: bad meta magic %q", ErrCorrupt, data[:len(metaMagic)])
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: meta checksum mismatch", ErrCorrupt)
	}
	r := payloadReader{b: body, off: len(metaMagic)}
	if v := r.uvarint(); r.err == nil && v != metaVersion {
		return nil, fmt.Errorf("%w: unknown meta version %d", ErrCorrupt, v)
	}
	m := newMetaState(0)
	m.budget = r.varint()
	nTenants := r.smallInt()
	if r.err == nil && nTenants > len(body) {
		r.fail("tenant count %d overruns body", nTenants)
	}
	if r.err != nil {
		return nil, r.err // before sizing the table by a hostile count
	}
	tenants := make([]string, 0, nTenants)
	for i := 0; i < nTenants && r.err == nil; i++ {
		t := r.str()
		if r.err == nil && i > 0 && t <= tenants[i-1] {
			r.fail("tenant table not strictly sorted at %d", i)
		}
		tenants = append(tenants, t)
	}
	used := make([]bool, len(tenants))
	tenant := func(i uint64) string {
		if r.err == nil && i >= uint64(len(tenants)) {
			r.fail("tenant index %d outside table of %d", i, len(tenants))
		}
		if r.err != nil {
			return ""
		}
		used[i] = true
		return tenants[i]
	}
	// tenantSection reads a tenant-keyed section, whose tenant indices must
	// strictly increase.
	tenantSection := func(into map[string]int64, zeroOK bool) {
		prev := -1
		for i, n := 0, r.smallInt(); i < n && r.err == nil; i++ {
			ti := r.uvarint()
			t, v := tenant(ti), r.varint()
			if r.err == nil && (int(ti) <= prev || (v == 0 && !zeroOK)) {
				r.fail("tenant section out of order or zero at %d", i)
			}
			prev = int(ti)
			into[t] = v
		}
	}
	tenantSection(m.unique, false)
	tenantSection(m.tenantBudget, true)
	nEntries := r.smallInt()
	if r.err == nil && nEntries > len(body) {
		r.fail("entry count %d overruns body", nEntries)
	}
	if r.err == nil {
		m.entries = make(map[graph.NodeID]metaEntry, nEntries+room)
	}
	prevID := graph.NodeID(-1)
	for i := 0; i < nEntries && r.err == nil; i++ {
		id := r.nodeID()
		flags := r.byte()
		e := metaEntry{billed: flags&1 != 0, tenant: tenant(r.uvarint())}
		e.attrs.Age = r.smallInt()
		e.attrs.DescLen = r.smallInt()
		e.attrs.Posts = r.smallInt()
		if r.err == nil && (id <= prevID || flags > 1) {
			r.fail("entry %d out of order or with flags %#x", id, flags)
		}
		prevID = id
		if r.err == nil {
			m.entries[id] = e
		}
	}
	if r.err == nil && slices.Contains(used, false) {
		r.fail("tenant table holds an unused name")
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing meta bytes", ErrCorrupt, len(body)-r.off)
	}
	return m, nil
}
