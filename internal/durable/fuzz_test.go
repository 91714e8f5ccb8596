package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"path/filepath"
	"testing"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// FuzzWALReplay drives segment recovery with arbitrary bytes — torn writes,
// bit flips, truncated tails, hostile lengths — and checks the recovery
// contract rather than any particular decoding:
//
//   - replay never panics and never over-allocates (frame lengths are
//     CRC-guarded and bounded);
//   - tail (active-segment) replay never errors: any malformed suffix is
//     truncation, and valid never exceeds the input;
//   - recovery is idempotent: re-replaying the truncated prefix yields the
//     identical record sequence and the same valid length;
//   - re-encoding the recovered records yields bytes that replay to the
//     same records again (decode ∘ encode is the identity on valid frames);
//   - sealed-segment replay is strictly harsher: it accepts exactly the
//     inputs whose every byte survives tail replay.
func FuzzWALReplay(f *testing.F) {
	var seed []byte
	seed = encodeFrame(seed, Record{Type: recFetch, User: 12, Billed: true, Tenant: "acme", Neighbors: []graph.NodeID{3, 4, 5}})
	seed = encodeFrame(seed, Record{Type: recUpgrade, User: 3, Tenant: "b"})
	seed = encodeFrame(seed, Record{Type: recTombstone, User: 4})
	seed = encodeFrame(seed, Record{Type: recBudget, Budget: 99})
	seed = encodeFrame(seed, Record{Type: recTenantBudget, Tenant: "acme", Budget: -1})
	seed = encodeFrame(seed, Record{Type: recBarrier, Gen: 7})
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail
	flipped := bytes.Clone(seed)
	flipped[9] ^= 0x10 // bit flip inside the first payload
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // hostile length, no payload
	// Fetch frames under a valid CRC whose neighbor section decodePayload
	// must reject: a non-minimal id varint, a 5-byte id above MaxInt32, a
	// count that overruns the payload, and a byte left over after the last
	// id.
	fetchHeader := []byte{recordVersion, byte(recFetch), 12, 1, 0, 0, 0, 0}
	for _, row := range [][]byte{
		{2, 0x85, 0x00, 3},
		{1, 0x80, 0x80, 0x80, 0x80, 0x08},
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 1, 2}, // 1<<62
		{1, 5, 9},
	} {
		p := append(bytes.Clone(fetchHeader), row...)
		if _, err := decodePayload(p); err == nil {
			f.Fatalf("decodePayload accepted malformed fetch payload %x", p)
		}
		f.Add(frame(p))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		valid, err := replaySegment(data, true, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			t.Fatalf("tail replay errored: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}

		// Idempotence on the truncated prefix.
		var again []Record
		valid2, err := replaySegment(data[:valid], true, func(r Record) error {
			again = append(again, r)
			return nil
		})
		if err != nil || valid2 != valid {
			t.Fatalf("re-replay: valid %d→%d, err %v", valid, valid2, err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-replay records %d→%d", len(recs), len(again))
		}

		// The recovered prefix is sealed-grade data.
		if _, err := replaySegment(data[:valid], false, func(Record) error { return nil }); err != nil {
			t.Fatalf("recovered prefix fails sealed replay: %v", err)
		}
		// And sealed replay of the full input succeeds iff nothing was torn.
		_, sealedErr := replaySegment(data, false, func(Record) error { return nil })
		if (sealedErr == nil) != (valid == int64(len(data))) {
			t.Fatalf("sealed/tail disagreement: valid=%d len=%d sealedErr=%v", valid, len(data), sealedErr)
		}

		// Round-trip: re-encode the recovered records and replay again.
		var enc []byte
		for _, r := range recs {
			enc = encodeFrame(enc, r)
		}
		var rt []Record
		if _, err := replaySegment(enc, false, func(r Record) error {
			rt = append(rt, r)
			return nil
		}); err != nil {
			t.Fatalf("re-encoded records fail replay: %v", err)
		}
		if len(rt) != len(recs) {
			t.Fatalf("round trip lost records: %d→%d", len(recs), len(rt))
		}
		for i := range recs {
			a, b := recs[i], rt[i]
			if a.Type != b.Type || a.User != b.User || a.Billed != b.Billed ||
				a.Tenant != b.Tenant || a.Budget != b.Budget || a.Gen != b.Gen ||
				a.Attrs != b.Attrs || len(a.Neighbors) != len(b.Neighbors) {
				t.Fatalf("round trip record %d: %+v != %+v", i, a, b)
			}
		}
	})
}

// frame wraps payload p in a frame header with a valid CRC.
func frame(p []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	return append(out, p...)
}

// FuzzManifest feeds arbitrary MANIFEST.json bytes to the manifest decoder.
// Recovery opens every file an accepted manifest names and compaction later
// deletes the snapshot and meta files, so beyond never panicking, every name
// an accepted manifest yields must sit directly inside the cache directory.
func FuzzManifest(f *testing.F) {
	for _, m := range []manifest{
		{Version: manifestVersion, Segments: []uint64{1}, NextSeq: 2},
		{Version: manifestVersion, Gen: 3, Snapshot: snapName(3), Meta: metaName(3), Segments: []uint64{7, 8}, NextSeq: 9},
		{Version: manifestVersion, Gen: 1, Snapshot: "../" + snapName(1), Meta: metaName(1), Segments: []uint64{2}, NextSeq: 3},
	} {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"gen":1,"snapshot":"/etc/passwd","meta":"meta-000001.bin","segments":[1],"next_seq":2}`))
	f.Add([]byte(`{}`))

	const dir = "cache"
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		names := []string{m.Snapshot, m.Meta}
		if m.Gen == 0 {
			names = nil
		}
		for _, seq := range m.Segments {
			names = append(names, segmentName(seq))
		}
		for _, name := range names {
			if filepath.Dir(filepath.Join(dir, name)) != dir {
				t.Fatalf("accepted manifest names %q, outside %s/", name, dir)
			}
		}
	})
}

// FuzzMeta feeds decodeMeta arbitrary bodies with a valid CRC appended, so
// the fuzzer explores the decoder rather than the checksum. Beyond never
// panicking, the encoding is canonical: any state decodeMeta accepts must
// re-encode through encodeMeta to the very bytes it came from.
func FuzzMeta(f *testing.F) {
	m := newMetaState(0)
	empty := encodeMeta(m)
	f.Add(empty[:len(empty)-4])
	m.apply(Record{Type: recFetch, User: 3, Billed: true, Tenant: "a", Attrs: osn.UserAttrs{Age: 1, DescLen: 200, Posts: 9}})
	m.apply(Record{Type: recFetch, User: 5})
	m.apply(Record{Type: recUpgrade, User: 5, Tenant: "b"})
	m.apply(Record{Type: recFetch, User: 9, Billed: true, Tenant: "c"})
	m.apply(Record{Type: recTombstone, User: 9})
	m.apply(Record{Type: recBudget, Budget: -100})
	m.apply(Record{Type: recTenantBudget, Tenant: "d", Budget: 40})
	enc := encodeMeta(m)
	f.Add(enc[:len(enc)-4])

	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
		got, err := decodeMeta(data, 0)
		if err != nil {
			return
		}
		if again := encodeMeta(got); !bytes.Equal(again, data) {
			t.Fatalf("accepted meta re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}
