package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"

	"rewire"
	"rewire/internal/httpsrc"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	errNoSuchJob  = errors.New("serve: no such job")
	errWrongState = errors.New("serve: job is not in the required state")
	errDraining   = errors.New("serve: server is draining")
	errTenantBusy = errors.New("serve: tenant job limit reached")
)

// JobStatus is the wire form of a job's current position — the GET
// /v1/jobs/{id} body and the list entries of GET /v1/jobs.
type JobStatus struct {
	ID      string `json:"id"`
	Tenant  string `json:"tenant,omitempty"`
	Backend string `json:"backend"`
	State   State  `json:"state"`
	Samples int    `json:"samples"` // delivered so far
	Total   int    `json:"total"`   // the spec's budget
	// Estimate is the self-normalized average-degree estimate, present once
	// the job is done.
	Estimate *float64 `json:"estimate,omitempty"`
	Error    string   `json:"error,omitempty"`
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.id,
		Tenant:  j.spec.Tenant,
		Backend: j.spec.Backend,
		State:   j.state,
		Samples: len(j.samples),
		Total:   j.spec.Samples,
	}
	if j.estimateOK {
		est := j.estimate
		st.Estimate = &est
	}
	if j.runErr != nil {
		st.Error = j.runErr.Error()
	}
	return st
}

// streamEvent is one JSON line of GET /v1/jobs/{id}/stream. Sample lines
// carry Index and Sample; the terminating line carries State (and, when
// available, Estimate or Error) so the client knows WHY the stream ended —
// "done", "paused", "cancelled", or "failed".
type streamEvent struct {
	Index    int            `json:"index,omitempty"`
	Sample   *rewire.Sample `json:"sample,omitempty"`
	State    State          `json:"state,omitempty"`
	Estimate *float64       `json:"estimate,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs                    submit a JobSpec, returns {"id": ...}
//	GET    /v1/jobs                    list job statuses
//	GET    /v1/jobs/{id}               one job's status
//	GET    /v1/jobs/{id}/stream?from=N samples as JSON lines (replay + follow)
//	POST   /v1/jobs/{id}/pause         quiesce at the next step boundary
//	POST   /v1/jobs/{id}/resume        continue from the stored checkpoint
//	GET    /v1/jobs/{id}/checkpoint    the raw checkpoint bytes (paused jobs)
//	DELETE /v1/jobs/{id}               cancel
//	GET    /v1/tenants                 every tenant's bill per backend
//	POST   /v1/tenants/{name}/budget   set {"backend": url, "budget": n}
//	GET    /v1/backends                opened backends + transport metrics
//	GET    /healthz                    liveness ("draining" while shutting down)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/jobs/{id}/pause", s.handlePause)
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleResume)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("POST /v1/tenants/{name}/budget", s.handleBudget)
	mux.HandleFunc("GET /v1/backends", s.handleBackends)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// httpError maps a serving-layer error to a status code and writes the JSON
// error body.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, errNoSuchJob):
		code = http.StatusNotFound
	case errors.Is(err, errWrongState):
		code = http.StatusConflict
	case errors.Is(err, errDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, errTenantBusy):
		code = http.StatusTooManyRequests
	case providerFault(err):
		code = http.StatusBadGateway
	case errors.Is(err, rewire.ErrUnknownDriver),
		errors.Is(err, rewire.ErrCheckpointVersion):
		code = http.StatusBadRequest
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// maxBodyBytes caps every POST body. A job spec or budget request is a few
// hundred bytes; the cap only stops a client from streaming an unbounded body
// into the decoder.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body, read through a maxBodyBytes cap, into v.
// On failure it answers 413 for an oversized body and 400 otherwise, and
// reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf("serve: decoding %s: %v", what, err)})
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, "job spec", &spec) {
		return
	}
	id, err := s.Submit(r.Context(), spec)
	if err != nil {
		if validationError(err) {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

// validationError reports whether err is a spec/session validation failure
// (client's fault) rather than a serving-layer or provider fault.
func validationError(err error) bool {
	switch {
	case errors.Is(err, errDraining), errors.Is(err, errTenantBusy),
		errors.Is(err, errNoSuchJob), errors.Is(err, errWrongState),
		providerFault(err):
		return false
	}
	return true
}

// providerFault reports whether err is the provider's fault: an answer that
// breaks the protocol (a published user count outside the ID space among
// them), or a provider that refused the connection or did not answer in
// time.
func providerFault(err error) bool {
	var protocol *httpsrc.ProtocolError
	var transport net.Error
	return errors.As(err, &protocol) || errors.As(err, &transport)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.jobList()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, map[string][]JobStatus{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, errNoSuchJob)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleStream writes the job's samples as JSON lines: first a replay of
// everything already delivered from ?from=N (default 0), then a live follow.
// The stream ends with one state line once the job reaches a terminal state
// OR pauses — a paused job's followers are released (resume and re-attach
// with ?from=<index> to continue exactly where the stream left off).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, errNoSuchJob)
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "serve: from must be a non-negative integer"})
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	next := from
	for {
		j.mu.Lock()
		state := j.state
		wake, samples := j.watchLocked()
		j.mu.Unlock()

		for ; next < len(samples); next++ {
			smp := samples[next]
			if err := enc.Encode(streamEvent{Index: next + 1, Sample: &smp}); err != nil {
				return // client went away
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal(state) || state == StatePaused {
			// Re-check under the lock that no samples landed between the
			// snapshot above and now (state is monotone once settled).
			j.mu.Lock()
			more := len(j.samples) > next
			j.mu.Unlock()
			if more {
				continue
			}
			st := j.status()
			end := streamEvent{State: state, Estimate: st.Estimate, Error: st.Error}
			_ = enc.Encode(end)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	if err := s.Pause(r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"state": "pausing"})
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if err := s.Resume(r.Context(), r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"state": string(StateRunning)})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, errNoSuchJob)
		return
	}
	j.mu.Lock()
	cp := j.checkpoint
	state := j.state
	j.mu.Unlock()
	if state != StatePaused || cp == nil {
		httpError(w, fmt.Errorf("%w: job is %s, checkpoints exist only for paused jobs", errWrongState, state))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(cp)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"state": string(StateCancelled)})
}

func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.TenantBills()})
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Backend string `json:"backend"`
		Budget  int64  `json:"budget"`
	}
	if !decodeBody(w, r, "budget request", &req) {
		return
	}
	if req.Backend == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "serve: budget request needs a backend URL"})
		return
	}
	s.setTenantBudget(r.PathValue("name"), req.Backend, req.Budget)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// BackendInfo is one opened backend's public view: its URL, its global
// ledger, its transport-level metrics (fetches that actually went over the
// wire, after cache and coalescing), and — when the stack has the matching
// capability — its coalescing and HTTP revalidation counters.
type BackendInfo struct {
	URL           string `json:"url"`
	UniqueQueries int64  `json:"unique_queries"`
	CacheSize     int    `json:"cache_size"`
	Fetches       int64  `json:"fetches"`
	FetchedIDs    int64  `json:"fetched_ids"`
	Failures      int64  `json:"failures"`
	// BatchSizeBuckets is the dispatched-batch size histogram (buckets 1, 2,
	// ≤4, ≤8, ≤16, ≤32, ≤64, >64), absent when nothing was fetched.
	BatchSizeBuckets []int64 `json:"batch_size_buckets,omitempty"`
	// BatchesDispatched / CoalescedIDs report the coalescing middleware's
	// work (present only when the server runs with -batchwait).
	BatchesDispatched *int64 `json:"batches_dispatched,omitempty"`
	CoalescedIDs      *int64 `json:"coalesced_ids,omitempty"`
	// Revalidated counts HTTP 304 answers served from the driver's ETag
	// validation cache (present only for HTTP backends).
	Revalidated *int64 `json:"revalidated,omitempty"`
}

func (s *Server) handleBackends(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	backends := make([]*sharedBackend, 0, len(s.backends))
	for _, sb := range s.backends {
		backends = append(backends, sb)
	}
	s.mu.Unlock()
	out := make([]BackendInfo, 0, len(backends))
	for _, sb := range backends {
		snap := sb.metrics.Snapshot()
		info := BackendInfo{
			URL:           sb.url,
			UniqueQueries: sb.provider.UniqueQueries(),
			CacheSize:     sb.provider.CacheSize(),
			Fetches:       snap.Fetches,
			FetchedIDs:    snap.IDs,
			Failures:      snap.Failures,
		}
		for _, n := range snap.BatchSizeBuckets {
			if n > 0 {
				info.BatchSizeBuckets = snap.BatchSizeBuckets[:]
				break
			}
		}
		if bs, ok := rewire.BackendAs[rewire.BatchStatser](sb.backend); ok {
			st := bs.BatchStats()
			info.BatchesDispatched = &st.Batches
			info.CoalescedIDs = &st.IDs
		}
		if hs, ok := rewire.BackendAs[interface{ Stats() httpsrc.Stats }](sb.backend); ok {
			st := hs.Stats()
			info.Revalidated = &st.Revalidated
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string][]BackendInfo{"backends": out})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": status})
}
