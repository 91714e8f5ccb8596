package httpsrc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// neighborsResponse, batchResult and batchResponse are the wire shapes of
// the two results documents, as encoding/json reads and writes them.
type neighborsResponse struct {
	Results []struct {
		ID        graph.NodeID   `json:"id"`
		Neighbors []graph.NodeID `json:"neighbors"`
	} `json:"results"`
}

type batchResult struct {
	ID        graph.NodeID   `json:"id"`
	Neighbors []graph.NodeID `json:"neighbors"`
	Error     string         `json:"error,omitempty"`
}

type batchResponse struct {
	Results []batchResult `json:"results"`
}

// refDecodeNeighbors is the reference GET decoder: encoding/json into the
// wire shape, then the protocol checks decodeNeighbors makes.
func refDecodeNeighbors(body []byte, ids []graph.NodeID) ([][]graph.NodeID, error) {
	var nr neighborsResponse
	if err := json.Unmarshal(body, &nr); err != nil {
		return nil, &ProtocolError{msg: fmt.Sprintf("malformed neighbors JSON: %v", err)}
	}
	if len(nr.Results) != len(ids) {
		return nil, &ProtocolError{msg: fmt.Sprintf("asked for %d ids, got %d results", len(ids), len(nr.Results))}
	}
	out := make([][]graph.NodeID, len(ids))
	for i, res := range nr.Results {
		if res.ID != ids[i] {
			return nil, &ProtocolError{msg: fmt.Sprintf("result %d answers id %d, want %d", i, res.ID, ids[i])}
		}
		if res.Neighbors == nil {
			return nil, &ProtocolError{msg: fmt.Sprintf("result %d carries no neighbor list", i)}
		}
		out[i] = res.Neighbors
	}
	return out, nil
}

// refDecodeBatch is the reference batch decoder: encoding/json into the
// wire shape, then the protocol checks decodeBatch makes.
func refDecodeBatch(body []byte, ids []graph.NodeID) ([][]graph.NodeID, []error, error) {
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return nil, nil, &ProtocolError{msg: fmt.Sprintf("malformed batch JSON: %v", err)}
	}
	if len(br.Results) != len(ids) {
		return nil, nil, &ProtocolError{msg: fmt.Sprintf("asked for %d ids, got %d results", len(ids), len(br.Results))}
	}
	lists := make([][]graph.NodeID, len(ids))
	var errs []error
	for i, res := range br.Results {
		if res.ID != ids[i] {
			return nil, nil, &ProtocolError{msg: fmt.Sprintf("result %d answers id %d, want %d", i, res.ID, ids[i])}
		}
		switch res.Error {
		case "":
			if res.Neighbors == nil {
				return nil, nil, &ProtocolError{msg: fmt.Sprintf("result %d carries no neighbor list", i)}
			}
			lists[i] = res.Neighbors
		case "no such user":
			if errs == nil {
				errs = make([]error, len(ids))
			}
			errs[i] = &noSuchUserError{id: res.ID, hasID: true}
		default:
			return nil, nil, &ProtocolError{msg: fmt.Sprintf("result %d carries unknown error %q", i, res.Error)}
		}
	}
	return lists, errs, nil
}

// foldOnlyKey reports whether body holds an object key that equals a schema
// key only case-insensitively. encoding/json matches such keys to the
// field; the hand decoder, like the protocol, does not. String values are
// not keys, so they never exempt a body.
func foldOnlyKey(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var objects []bool // the open containers, innermost last: true for an object
	key := false       // the next token is an object key
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			objects = append(objects, tok == json.Delim('{'))
			key = tok == json.Delim('{')
			continue
		case json.Delim('}'), json.Delim(']'):
			objects = objects[:len(objects)-1]
		default:
			if key {
				s := tok.(string)
				for _, k := range []string{"results", "id", "neighbors", "error"} {
					if s != k && strings.EqualFold(s, k) {
						return true
					}
				}
				key = false
				continue
			}
		}
		// A value ended: inside an object, a key comes next.
		key = len(objects) > 0 && objects[len(objects)-1]
	}
}

// sameDecode fails t unless a decoder and its reference agree on accepting
// body, on every list, and on which ids failed with "no such user".
func sameDecode(t *testing.T, name string, body []byte, lists, ref [][]graph.NodeID, errs, refErrs []error, err, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s(%q): error %v, reference error %v", name, body, err, refErr)
	}
	for i := range lists {
		if !slices.Equal(lists[i], ref[i]) || (lists[i] == nil) != (ref[i] == nil) {
			t.Fatalf("%s(%q): list %d is %v, reference %v", name, body, i, lists[i], ref[i])
		}
	}
	failed := func(errs []error, i int) bool { return errs != nil && errs[i] != nil }
	for i := range lists {
		if failed(errs, i) != failed(refErrs, i) {
			t.Fatalf("%s(%q): id %d failed: %v, reference: %v", name, body, i, failed(errs, i), failed(refErrs, i))
		}
	}
}

// FuzzDecodeBatch throws arbitrary response bodies at the client-side
// decoders for a fixed id list. A body is either off-protocol (a
// *ProtocolError) or one result per id, and the only per-id failure the
// batch form may carry is "no such user". Both decoders must also decide
// every body as the encoding/json reference does, list for list, except
// where a key matches the schema only case-insensitively.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range []string{
		`{"results":[{"id":0,"neighbors":[1,2]},{"id":7,"neighbors":[]},{"id":42,"neighbors":[3]}]}`,
		`{"results":[{"id":0,"neighbors":[1]},{"id":7,"neighbors":[],"error":"no such user"},{"id":42,"neighbors":[0]}]}`,
		`{"results":[{"id":0,"neighbors":[1]},{"id":7,"neighbors":[],"error":"boom"},{"id":42,"neighbors":[0]}]}`,
		`{"results":[{"id":7,"neighbors":[1]},{"id":0},{"id":42}]}`,
		`{"results":[{"id":0,"neighbors":[1,`,
		`{"results":null}`,
		`null`,
		``,
		` { "x" : [{"y":-1.5e+3}, "é\"", true, null] , "results" : [ {"neighbors":[2147483647,-2147483648],"id":0},` +
			`{"error":"no such user","id":7},{"id":42,"neighbors":[5],"neighbors":[null,6],"error":null}] } `,
		`{"results":[{"id":0,"neighbors":[1]},{"id":7},{"id":42,"neighbors":[3]}]}`,
		`{"results":[{"id":0,"neighbors":[1]},{"id":7,"neighbors":null},{"id":42,"neighbors":[3]}]}`,
		`{"results":[{"id":0,"neighbors":[2147483648]},{"id":7,"neighbors":[1.0]},{"id":42,"neighbors":[01]}]}`,
		`{"results":[{"id":0,"neighbors":[1,2,3]},{"id":7,"neighbors":[4]}],"results":[{"neighbors":[5]},null,{"id":42,"neighbors":[]}]}`,
		`{"RESULTS":[{"Id":0,"neighbors":[1]},{"id":7,"neighbors":[2]},{"id":42,"neighbors":[3]}]}`,
	} {
		f.Add([]byte(seed))
	}
	ids := []graph.NodeID{0, 7, 42}
	f.Fuzz(func(t *testing.T, body []byte) {
		var pe *ProtocolError
		lists, errs, err := decodeBatch(body, ids)
		if err != nil {
			if !errors.As(err, &pe) {
				t.Fatalf("decodeBatch error %T (%v), want *ProtocolError", err, err)
			}
		} else {
			if len(lists) != len(ids) {
				t.Fatalf("decodeBatch: %d lists for %d ids", len(lists), len(ids))
			}
			if errs != nil && len(errs) != len(ids) {
				t.Fatalf("decodeBatch: %d per-id errors for %d ids", len(errs), len(ids))
			}
			for i, e := range errs {
				if e != nil && !errors.Is(e, osn.ErrNoSuchUser) {
					t.Fatalf("decodeBatch: id %d failed with %v, want only ErrNoSuchUser", ids[i], e)
				}
			}
		}
		nlists, nerr := decodeNeighbors(body, ids)
		if nerr != nil {
			if !errors.As(nerr, &pe) {
				t.Fatalf("decodeNeighbors error %T (%v), want *ProtocolError", nerr, nerr)
			}
		} else if len(nlists) != len(ids) {
			t.Fatalf("decodeNeighbors: %d lists for %d ids", len(nlists), len(ids))
		}
		if foldOnlyKey(body) {
			return
		}
		rlists, rerrs, rerr := refDecodeBatch(body, ids)
		sameDecode(t, "decodeBatch", body, lists, rlists, errs, rerrs, err, rerr)
		rnlists, rnerr := refDecodeNeighbors(body, ids)
		sameDecode(t, "decodeNeighbors", body, nlists, rnlists, nil, nil, nerr, rnerr)
	})
}

// FuzzHandlerBatch throws arbitrary POST bodies at the reference server's
// /neighbors/batch route. It must answer 200 or 400, and a 200 must be a
// protocol answer with one result per requested id, byte for byte what
// json.Marshal makes of it.
func FuzzHandlerBatch(f *testing.F) {
	for _, seed := range []string{
		`{"ids":[0,1,2]}`,
		`{"ids":[0,99,-1]}`,
		`{"ids":[]}`,
		`{"ids":[2147483648]}`,
		`{"ids":[1]}{"ids":[2]}`,
		`{}`,
		`garbage`,
	} {
		f.Add([]byte(seed))
	}
	g := testGraph()
	h := Handler(g, ServerOptions{})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/neighbors/batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for body %q, want 200 or 400", rec.Code, body)
		}
		var req struct {
			IDs []graph.NodeID `json:"ids"`
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for an undecodable body %q: %v", body, err)
		}
		if _, _, err := decodeBatch(rec.Body.Bytes(), req.IDs); err != nil {
			t.Fatalf("200 answer to %q is off-protocol: %v", body, err)
		}
		want := batchResponse{Results: make([]batchResult, len(req.IDs))}
		for i, v := range req.IDs {
			want.Results[i] = batchResult{ID: v, Neighbors: []graph.NodeID{}, Error: "no such user"}
			if v >= 0 && int(v) < g.NumNodes() {
				want.Results[i] = batchResult{ID: v, Neighbors: g.Neighbors(v)}
			}
		}
		marshalled, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, append(marshalled, '\n')) {
			t.Fatalf("answer to %q is\n%s\nwant json.Marshal's\n%s", body, got, marshalled)
		}
	})
}

// FuzzDecodeMeta throws arbitrary bodies at the /meta decoder: a
// *ProtocolError, or a user count in [0, MaxInt32] that the same decoder
// reads back from its canonical form.
func FuzzDecodeMeta(f *testing.F) {
	for _, seed := range []string{
		`{"num_users":12345}`,
		`{"num_users":0}`,
		`{"num_users":-1}`,
		`{"num_users":2147483648}`,
		`{"num_users":1e3}`,
		`{"num_users":"7"}`,
		`{"other":[1,2],"num_users":5}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		n, err := decodeMeta(body)
		if err != nil {
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("decodeMeta(%q) error %T (%v), want *ProtocolError", body, err, err)
			}
			return
		}
		if n < 0 || n > math.MaxInt32 {
			t.Fatalf("decodeMeta(%q) = %d, outside [0, MaxInt32]", body, n)
		}
		if m, err := decodeMeta(fmt.Appendf(nil, `{"num_users":%d}`, n)); err != nil || m != n {
			t.Fatalf("decodeMeta(%q) = %d, but its canonical form reads %d, %v", body, n, m, err)
		}
	})
}
