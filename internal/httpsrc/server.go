package httpsrc

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rewire/internal/graph"
)

// ServerOptions configures the reference provider server.
type ServerOptions struct {
	// QueriesPerWindow caps /neighbors requests per Window (0 disables rate
	// limiting). One request counts once regardless of how many ids it
	// carries — mirroring providers that meter calls, not entities.
	QueriesPerWindow int
	// Window is the rate-limit window length. It must be positive when
	// QueriesPerWindow is; Handler panics otherwise.
	Window time.Duration
	// Latency, when positive, sleeps that long before answering — a knob for
	// exercising timeout and cancellation paths.
	Latency time.Duration
	// MaxIDsPerRequest rejects oversized batches with 400 (0 = unlimited).
	MaxIDsPerRequest int
	// DisableBatch withholds the POST /neighbors/batch route, modeling a
	// provider that only speaks the legacy GET form (the driver's fallback
	// path is tested against this).
	DisableBatch bool
	// Serialize admits one neighbor request at a time: each request occupies
	// the server for its full Latency before the next begins, modeling a
	// provider whose cost is per round-trip. Under it, wall-clock is
	// (requests × Latency) whatever the client's parallelism — the property
	// the batching benchmark measures.
	Serialize bool
}

// server serves the neighbor-list protocol over an in-memory graph.
type server struct {
	g   *graph.Graph
	opt ServerOptions

	// serial, when non-nil, is a one-token admission channel (a channel
	// rather than a mutex so no lock is ever held across the latency sleep).
	serial chan struct{}

	mu          sync.Mutex
	windowStart time.Time
	used        int
}

// Handler returns an http.Handler serving the protocol over g: the reference
// implementation of the provider side, used by the driver tests and the
// conformance suite, and a ready-made way to put any local graph behind a
// real socket. It panics on a quota without a positive window, which would
// otherwise restart the window on every request and never limit anything.
func Handler(g *graph.Graph, opt ServerOptions) http.Handler {
	if opt.QueriesPerWindow > 0 && opt.Window <= 0 {
		panic(fmt.Sprintf("httpsrc: QueriesPerWindow %d needs a positive Window, got %v", opt.QueriesPerWindow, opt.Window))
	}
	s := &server{g: g, opt: opt}
	if opt.Serialize {
		s.serial = make(chan struct{}, 1)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /neighbors", s.neighbors)
	if !opt.DisableBatch {
		mux.HandleFunc("POST /neighbors/batch", s.batch)
	}
	mux.HandleFunc("GET /meta", s.meta)
	return mux
}

// admit applies the rate limit, returning the Retry-After delay when the
// window's quota is spent.
func (s *server) admit(now time.Time) (time.Duration, bool) {
	if s.opt.QueriesPerWindow <= 0 {
		return 0, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.windowStart.IsZero() || now.Sub(s.windowStart) >= s.opt.Window {
		s.windowStart = now
		s.used = 0
	}
	if s.used >= s.opt.QueriesPerWindow {
		return s.windowStart.Add(s.opt.Window).Sub(now), false
	}
	s.used++
	return 0, true
}

// rateHeaders publishes the provider's quota state on every response.
func (s *server) rateHeaders(w http.ResponseWriter, now time.Time) {
	if s.opt.QueriesPerWindow <= 0 {
		return
	}
	s.mu.Lock()
	remaining := s.opt.QueriesPerWindow - s.used
	reset := s.windowStart.Add(s.opt.Window)
	s.mu.Unlock()
	if remaining < 0 {
		remaining = 0
	}
	w.Header().Set("X-RateLimit-Limit", strconv.Itoa(s.opt.QueriesPerWindow))
	w.Header().Set("X-RateLimit-Remaining", strconv.Itoa(remaining))
	if !reset.Before(now) {
		w.Header().Set("X-RateLimit-Reset", strconv.FormatInt(reset.Unix(), 10))
	}
}

// enter admits a neighbor request and models its service time: a spent
// window answers 429 with Retry-After; otherwise the request takes the
// serialization token (when configured) and sleeps out the latency while
// holding it. The returned release func is nil when the request was refused
// or its client gave up while queued.
func (s *server) enter(w http.ResponseWriter, r *http.Request) func() {
	now := time.Now()
	wait, ok := s.admit(now)
	s.rateHeaders(w, now)
	if !ok {
		w.Header().Set("Retry-After", strconv.Itoa(int(wait/time.Second)+1))
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintf(w, `{"error":"rate limited"}`)
		return nil
	}
	release := func() {}
	if s.serial != nil {
		select {
		case s.serial <- struct{}{}:
			release = func() { <-s.serial }
		case <-r.Context().Done():
			return nil
		}
	}
	if s.opt.Latency > 0 {
		select {
		case <-time.After(s.opt.Latency):
		case <-r.Context().Done():
			release()
			return nil
		}
	}
	return release
}

// writeJSON marshals v, stamps a strong ETag over the exact bytes, and
// answers 304 when the request's If-None-Match already names them.
func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	h := fnv.New64a()
	h.Write(body)
	etag := fmt.Sprintf("%q", strconv.FormatUint(h.Sum64(), 16))
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/json")
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Write(append(body, '\n'))
}

func (s *server) neighbors(w http.ResponseWriter, r *http.Request) {
	release := s.enter(w, r)
	if release == nil {
		return
	}
	defer release()
	raw := r.URL.Query().Get("ids")
	if raw == "" {
		http.Error(w, `{"error":"missing ids"}`, http.StatusBadRequest)
		return
	}
	parts := strings.Split(raw, ",")
	if s.opt.MaxIDsPerRequest > 0 && len(parts) > s.opt.MaxIDsPerRequest {
		http.Error(w, `{"error":"too many ids"}`, http.StatusBadRequest)
		return
	}
	var nr neighborsResponse
	for _, p := range parts {
		id, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil {
			http.Error(w, fmt.Sprintf(`{"error":"bad id %q"}`, p), http.StatusBadRequest)
			return
		}
		v := graph.NodeID(id)
		if v < 0 || int(v) >= s.g.NumNodes() {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(errorResponse{Error: "no such user", ID: v})
			return
		}
		nr.Results = append(nr.Results, struct {
			ID        graph.NodeID   `json:"id"`
			Neighbors []graph.NodeID `json:"neighbors"`
		}{ID: v, Neighbors: s.neighborsOf(v)})
	}
	writeJSON(w, r, nr)
}

// batch serves POST /neighbors/batch: per-id results, unknown ids as error
// entries in a 200 answer — the partial-result contract that keeps one bad
// id from failing the walkers coalesced alongside it.
func (s *server) batch(w http.ResponseWriter, r *http.Request) {
	release := s.enter(w, r)
	if release == nil {
		return
	}
	defer release()
	var req struct {
		IDs []graph.NodeID `json:"ids"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, maxResponseBytes)).Decode(&req); err != nil {
		http.Error(w, `{"error":"malformed batch body"}`, http.StatusBadRequest)
		return
	}
	if len(req.IDs) == 0 {
		http.Error(w, `{"error":"missing ids"}`, http.StatusBadRequest)
		return
	}
	if s.opt.MaxIDsPerRequest > 0 && len(req.IDs) > s.opt.MaxIDsPerRequest {
		http.Error(w, `{"error":"too many ids"}`, http.StatusBadRequest)
		return
	}
	br := batchResponse{Results: make([]batchResult, len(req.IDs))}
	for i, v := range req.IDs {
		if v < 0 || int(v) >= s.g.NumNodes() {
			br.Results[i] = batchResult{ID: v, Neighbors: []graph.NodeID{}, Error: "no such user"}
			continue
		}
		br.Results[i] = batchResult{ID: v, Neighbors: s.neighborsOf(v)}
	}
	writeJSON(w, r, br)
}

// neighborsOf returns v's neighbor list, never nil (the wire shape encodes
// an isolated user as an empty array).
func (s *server) neighborsOf(v graph.NodeID) []graph.NodeID {
	nbrs := s.g.Neighbors(v)
	if nbrs == nil {
		nbrs = []graph.NodeID{}
	}
	return nbrs
}

func (s *server) meta(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.rateHeaders(w, now)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"num_users":%d}`, s.g.NumNodes())
}
