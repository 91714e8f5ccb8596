package httpsrc

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// FuzzDecodeBatch throws arbitrary response bodies at the client-side
// decoders for a fixed id list. A body is either off-protocol (a
// *ProtocolError) or one result per id, and the only per-id failure the batch
// form may carry is "no such user".
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
		if lists, err := decodeNeighbors(body, ids); err != nil {
			if !errors.As(err, &pe) {
				t.Fatalf("decodeNeighbors error %T (%v), want *ProtocolError", err, err)
			}
		} else if len(lists) != len(ids) {
			t.Fatalf("decodeNeighbors: %d lists for %d ids", len(lists), len(ids))
		}
	})
}

// FuzzHandlerBatch throws arbitrary POST bodies at the reference server's
// /neighbors/batch route. It must answer 200 or 400, and a 200 must be a
// protocol answer with one result per requested id.
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
	h := Handler(testGraph(), ServerOptions{})
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
	})
}
