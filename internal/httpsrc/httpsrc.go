// Package httpsrc is the live-provider driver: a Backend that speaks a small
// JSON neighbor-list protocol over HTTP — the paper's restrictive third-party
// web interface made literal. It handles what real rate-limited endpoints
// throw at a crawler: X-RateLimit-* feedback, 429 with Retry-After, transient
// 5xx, and slow responses, each bounded by a per-attempt context deadline.
// A Backend makes single attempts and classifies every failure (Temporary,
// RetryDelay); retrying is the caller's business — the rewire http driver
// wraps it in rewire.WithRetry. Likewise a Backend sends each Fetch as one
// request however many ids it carries: coalescing and chunking are
// rewire.WithBatching's. The package also ships the reference server
// (Handler) the conformance and driver tests run against.
//
// Protocol (all responses JSON):
//
//	GET {base}/neighbors?ids=1,2,3
//	  200 {"results":[{"id":1,"neighbors":[2,3]}, ...]}   (request order)
//	  404 {"error":"no such user","id":9}                 (whole batch fails)
//	  429 + Retry-After: <seconds>                        (quota exhausted)
//	POST {base}/neighbors/batch   body {"ids":[1,2,9]}
//	  200 {"results":[{"id":1,"neighbors":[2,3]},
//	                  {"id":2,"neighbors":[1]},
//	                  {"id":9,"neighbors":[],"error":"no such user"}]}
//	  404/405                                             (route unsupported)
//	GET {base}/meta
//	  200 {"num_users":12345}
//
// The batch POST is the coalescing-friendly form: results are per-id partial
// — an unknown id is an error ENTRY in a 200 response, never a whole-batch
// failure — so one walker's bad id cannot poison the strangers batched with
// it. A backend probes the route once and falls back to GETs forever after a
// 404/405, so it interoperates with providers that only speak the GET form;
// on that path a 404 names the guilty id and the client re-requests the rest.
//
// Both /neighbors and /neighbors/batch 200 responses carry a strong ETag;
// the backend remembers recent (ids → ETag, lists) pairs and revalidates
// with If-None-Match, so a provider answering 304 Not Modified spends
// bandwidth — and, for providers that meter bytes or work, cost — only when
// the answer actually changed.
//
// Every response may carry X-RateLimit-Limit / X-RateLimit-Remaining /
// X-RateLimit-Reset (unix seconds); the backend records the latest values
// for rate-limit feedback.
//
// The backend reads both 200 answers with one single-pass parser that
// appends ids straight into the returned lists, with no encoding/json
// fallback. It accepts what encoding/json would decode into the schema: any
// JSON whitespace, keys in any order, escaped strings, and unknown keys,
// whose values it validates and skips. Ids are JSON integers within int32
// (no fraction, no exponent). Keys match exactly, not case-insensitively.
// A result without a "neighbors" list, or with a null one, is off-protocol
// (a *ProtocolError): only a batch entry whose error is "no such user" may
// lack one. The reference server writes both answers byte for byte as
// json.Marshal would, so their ETags are those of the marshalled form.
package httpsrc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// Defaults for Options zero values.
const (
	DefaultRequestTimeout  = 10 * time.Second
	DefaultValidationCache = 256
)

// maxResponseBytes caps how much of a response body is read — a misbehaving
// server must not balloon the crawler's memory.
const maxResponseBytes = 32 << 20

// Options configures an HTTP backend. The zero value of every field selects
// its default; only BaseURL is required.
type Options struct {
	// BaseURL is the provider root, e.g. "http://host:8080/graph". The
	// protocol paths (/neighbors, /meta) are appended to it.
	BaseURL string
	// Client is the http.Client to use (default: a fresh client, so closing
	// idle connections never touches a shared transport).
	Client *http.Client
	// RequestTimeout is the per-attempt deadline, layered under the caller's
	// context: one slow attempt fails fast (and is retried by the caller's
	// retry policy) instead of eating the whole walk deadline.
	RequestTimeout time.Duration
	// ValidationCache bounds the ETag revalidation cache: how many recent
	// (ids → ETag, lists) pairs are kept for If-None-Match conditional
	// requests (default 256; negative disables revalidation).
	ValidationCache int
}

func (o *Options) withDefaults() {
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.ValidationCache == 0 {
		o.ValidationCache = DefaultValidationCache
	}
}

// StatusError reports a non-2xx provider response.
type StatusError struct {
	Code int
	// RetryAfter is the parsed Retry-After duration (0 when absent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("httpsrc: provider returned %d %s", e.Code, http.StatusText(e.Code))
}

// Temporary reports whether retrying can help: quota exhaustion and server
// errors are transient, other 4xx are not.
func (e *StatusError) Temporary() bool { return e.Code == http.StatusTooManyRequests || e.Code >= 500 }

// RetryDelay is the provider's Retry-After: a retry waits at least this long,
// and a retry policy whose longest wait is shorter returns the error instead
// of sleeping it out (a 429 on an hour-long quota window).
func (e *StatusError) RetryDelay() time.Duration { return e.RetryAfter }

// ProtocolError reports a response that is not valid protocol JSON (or that
// answers a different question than asked). It is permanent: retrying a
// server that speaks garbage is not a recovery strategy.
type ProtocolError struct{ msg string }

func (e *ProtocolError) Error() string { return "httpsrc: " + e.msg }

// Temporary reports false: see ProtocolError.
func (e *ProtocolError) Temporary() bool { return false }

// transportError is a round-trip that produced no response: connection
// refused or reset, the per-attempt timeout, a body cut short. Such failures
// are transient, but the *url.Error beneath does not say so for a refused
// connection, hence the wrapper.
type transportError struct{ err error }

func (e *transportError) Error() string   { return e.err.Error() }
func (e *transportError) Unwrap() error   { return e.err }
func (e *transportError) Temporary() bool { return true }

// transportFailure classifies a round-trip that produced no usable response:
// the caller's context error when that is what ended it, a transportError
// otherwise.
func transportFailure(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return &transportError{err}
}

// Backend fetches neighbor lists from an HTTP provider. It implements
// osn.Backend with the UserCounter and RateLimited capabilities, and it is
// safe for concurrent use — the walker fleet and the prefetch pool share one
// Backend, and the underlying http.Client pools connections across them.
type Backend struct {
	base *url.URL
	opt  Options

	mu    sync.Mutex
	rl    osn.RateLimitInfo
	rlSet bool
	users int // cached /meta answer; 0 = not yet known

	// Wire-activity counters (Stats) and the batch-route probe result.
	batchPosts       atomic.Int64
	gets             atomic.Int64
	revalidated      atomic.Int64
	fallbacks        atomic.Int64
	batchUnsupported atomic.Bool

	// ETag revalidation cache: recent (request key → ETag, decoded lists),
	// FIFO-bounded by Options.ValidationCache. Entries are immutable once
	// stored; lists are deep-cloned both in and out, so cached slices never
	// alias what callers own.
	vmu    sync.Mutex
	vcache map[string]*valEntry
	vorder []string
}

// valEntry is one revalidation-cache slot.
type valEntry struct {
	etag  string
	lists [][]graph.NodeID
}

// Stats counts a backend's wire activity since construction.
type Stats struct {
	// BatchPosts and Gets count POST /neighbors/batch and GET /neighbors
	// attempts (retries included).
	BatchPosts, Gets int64
	// Revalidated counts answers served from the validation cache after a
	// 304 Not Modified.
	Revalidated int64
	// BatchFallbacks counts batch-route probes that found no route (at most
	// one: the result is remembered).
	BatchFallbacks int64
}

// Stats returns the backend's wire-activity counters.
func (b *Backend) Stats() Stats {
	return Stats{
		BatchPosts:     b.batchPosts.Load(),
		Gets:           b.gets.Load(),
		Revalidated:    b.revalidated.Load(),
		BatchFallbacks: b.fallbacks.Load(),
	}
}

// New builds a backend for the provider at o.BaseURL. No request is made —
// use Meta to validate connectivity eagerly.
func New(o Options) (*Backend, error) {
	o.withDefaults()
	u, err := url.Parse(o.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("httpsrc: bad base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("httpsrc: base URL scheme %q is not http(s)", u.Scheme)
	}
	return &Backend{base: u, opt: o}, nil
}

// endpoint builds {base}/{leaf}?{query}, preserving any query the base URL
// already carries.
func (b *Backend) endpoint(leaf string, extra url.Values) string {
	u := *b.base
	u.Path = strings.TrimRight(u.Path, "/") + "/" + leaf
	q := u.Query()
	for k, vs := range extra {
		for _, v := range vs {
			q.Set(k, v)
		}
	}
	u.RawQuery = q.Encode()
	return u.String()
}

// Fetch resolves the ids' neighbor lists (one per id, input order) in one
// attempt that sends all of them in one request. It does not chunk, so over
// a provider with a per-request id limit, compose rewire.WithBatching with
// MaxBatch at or below that limit.
// An id outside the provider's user space does not fail the ids batched with
// it: the lists come back with an *osn.IDErrors whose entry for that id
// matches osn.ErrNoSuchUser. Any other error fails the whole batch.
func (b *Backend) Fetch(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, error) {
	lists, errs, err := b.FetchPartial(ctx, ids)
	if err != nil {
		return nil, err
	}
	if errs != nil {
		return lists, &osn.IDErrors{Errs: errs}
	}
	return lists, nil
}

// FetchPartial is Fetch with the per-id errors split out: lists[i] is valid
// where errs[i] is nil (errs is nil when every id succeeded), and the batch
// error is non-nil only when the round-trip as a whole failed. The attempt
// is the batch POST when the provider supports it, the GET form (with
// guilty-id isolation) otherwise. The route probe result is remembered, so
// exactly one wasted round-trip is spent discovering a GET-only provider.
func (b *Backend) FetchPartial(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, []error, error) {
	if len(ids) == 0 {
		return [][]graph.NodeID{}, nil, nil // nothing to ask: no request
	}
	if !b.batchUnsupported.Load() {
		lists, errs, err := b.doBatchPost(ctx, ids)
		var se *StatusError
		if err != nil && errors.As(err, &se) && (se.Code == http.StatusNotFound || se.Code == http.StatusMethodNotAllowed) {
			// No batch route on this provider: remember and speak GET forever.
			b.batchUnsupported.Store(true)
			b.fallbacks.Add(1)
		} else {
			return lists, errs, err
		}
	}
	return b.getPartial(ctx, ids)
}

// getPartial resolves ids over the legacy GET protocol, isolating per-id
// 404s: when the provider names the guilty id, it is struck and the rest
// re-requested; when it does not, the request degrades to single-id GETs.
func (b *Backend) getPartial(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, []error, error) {
	lists := make([][]graph.NodeID, len(ids))
	var errs []error
	remaining := slices.Clone(ids)
	idx := make([]int, len(ids)) // idx[j] = original position of remaining[j]
	for i := range idx {
		idx[i] = i
	}
	for len(remaining) > 0 {
		got, err := b.doNeighbors(ctx, remaining)
		if err == nil {
			for j, l := range got {
				lists[idx[j]] = l
			}
			return lists, errs, nil
		}
		var nse *noSuchUserError
		if !errors.As(err, &nse) {
			return nil, nil, err
		}
		if errs == nil {
			errs = make([]error, len(ids))
		}
		if nse.hasID {
			j := slices.Index(remaining, nse.id)
			if j < 0 {
				return nil, nil, &ProtocolError{msg: fmt.Sprintf("404 blames id %d, which was not requested", nse.id)}
			}
			errs[idx[j]] = err
			remaining = slices.Delete(remaining, j, j+1)
			idx = slices.Delete(idx, j, j+1)
			continue
		}
		if len(remaining) == 1 {
			errs[idx[0]] = err
			return lists, errs, nil
		}
		// The provider did not name the guilty id: isolate one by one.
		for j, v := range remaining {
			got, err := b.doNeighbors(ctx, []graph.NodeID{v})
			switch {
			case err == nil:
				lists[idx[j]] = got[0]
			case errors.Is(err, osn.ErrNoSuchUser):
				errs[idx[j]] = err
			default:
				return nil, nil, err
			}
		}
		return lists, errs, nil
	}
	return lists, errs, nil
}

// errorResponse is the wire shape of a protocol error body.
type errorResponse struct {
	Error string       `json:"error"`
	ID    graph.NodeID `json:"id"`
}

// noSuchUserError is the driver's typed "no such user" answer. It matches
// osn.ErrNoSuchUser via errors.Is; hasID says whether the provider named the
// guilty id (getPartial needs it to strike exactly that id — 0 is a
// valid id, so presence must be explicit).
type noSuchUserError struct {
	id    graph.NodeID
	hasID bool
	ref   string
}

func (e *noSuchUserError) Error() string {
	if e.hasID {
		return fmt.Sprintf("%v: id %d", osn.ErrNoSuchUser, e.id)
	}
	return fmt.Sprintf("%v: %s", osn.ErrNoSuchUser, e.ref)
}

func (e *noSuchUserError) Unwrap() error { return osn.ErrNoSuchUser }

// idsKey renders ids as the comma-joined decimal form used both in GET query
// strings and as the revalidation-cache key.
func idsKey(ids []graph.NodeID) string {
	strs := make([]string, len(ids))
	for i, v := range ids {
		strs[i] = strconv.FormatInt(int64(v), 10)
	}
	return strings.Join(strs, ",")
}

// doNeighbors performs one /neighbors attempt under the per-attempt deadline,
// revalidating with If-None-Match when the answer is cached.
func (b *Backend) doNeighbors(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, error) {
	joined := idsKey(ids)
	key := "G:" + joined
	body, etag, cached, err := b.do(ctx, http.MethodGet,
		b.endpoint("neighbors", url.Values{"ids": {joined}}), nil, key, true)
	b.gets.Add(1)
	if err != nil || cached != nil {
		return cached, err
	}
	out, err := decodeNeighbors(body, ids)
	if err == nil && etag != "" {
		b.cacheStore(key, etag, out)
	}
	return out, err
}

// doBatchPost performs one POST /neighbors/batch attempt: per-id partial
// results, ETag revalidation. A 404/405 StatusError means the provider has
// no batch route (FetchPartial handles the fallback).
func (b *Backend) doBatchPost(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, []error, error) {
	payload, err := json.Marshal(struct {
		IDs []graph.NodeID `json:"ids"`
	}{IDs: ids})
	if err != nil {
		return nil, nil, err
	}
	key := "P:" + idsKey(ids)
	body, etag, cached, err := b.do(ctx, http.MethodPost, b.endpoint("neighbors/batch", nil), payload, key, false)
	b.batchPosts.Add(1)
	if err != nil || cached != nil {
		return cached, nil, err
	}
	lists, errs, err := decodeBatch(body, ids)
	if err == nil && errs == nil && etag != "" {
		b.cacheStore(key, etag, lists)
	}
	return lists, errs, err
}

// cloneLists deep-copies a result set — cache entries are immutable, and
// returned slices pass ownership to the caller.
func cloneLists(lists [][]graph.NodeID) [][]graph.NodeID {
	out := make([][]graph.NodeID, len(lists))
	for i, l := range lists {
		out[i] = slices.Clone(l)
	}
	return out
}

// cacheLookup returns the revalidation-cache entry for key, nil when absent
// or when the cache is disabled.
func (b *Backend) cacheLookup(key string) *valEntry {
	if b.opt.ValidationCache < 0 {
		return nil
	}
	b.vmu.Lock()
	defer b.vmu.Unlock()
	return b.vcache[key]
}

// cacheStore remembers (key → etag, lists), evicting FIFO past the bound.
// Only fully successful answers are stored — per-id errors have no cacheable
// representation.
func (b *Backend) cacheStore(key, etag string, lists [][]graph.NodeID) {
	if b.opt.ValidationCache < 0 {
		return
	}
	b.vmu.Lock()
	defer b.vmu.Unlock()
	if b.vcache == nil {
		b.vcache = make(map[string]*valEntry)
	}
	if _, ok := b.vcache[key]; !ok {
		b.vorder = append(b.vorder, key)
		for len(b.vorder) > b.opt.ValidationCache {
			delete(b.vcache, b.vorder[0])
			b.vorder = b.vorder[1:]
		}
	}
	b.vcache[key] = &valEntry{etag: etag, lists: cloneLists(lists)}
}

// Meta fetches the provider-published user count in one attempt and caches
// it for NumUsers.
func (b *Backend) Meta(ctx context.Context) (int, error) {
	body, _, _, err := b.do(ctx, http.MethodGet, b.endpoint("meta", nil), nil, "", false)
	if err != nil {
		return 0, err
	}
	n, err := decodeMeta(body)
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	b.users = n
	b.mu.Unlock()
	return n, nil
}

// decodeMeta parses a 200 /meta body: the user count, or a *ProtocolError.
func decodeMeta(body []byte) (int, error) {
	var meta struct {
		NumUsers int `json:"num_users"`
	}
	if err := json.Unmarshal(body, &meta); err != nil {
		return 0, &ProtocolError{msg: fmt.Sprintf("malformed meta JSON: %v", err)}
	}
	if meta.NumUsers < 0 || meta.NumUsers > math.MaxInt32 {
		// Node ids are int32; 0 still means "no count published".
		return 0, &ProtocolError{msg: fmt.Sprintf("meta num_users %d outside [0, %d]", meta.NumUsers, math.MaxInt32)}
	}
	return meta.NumUsers, nil
}

// NumUsers returns the cached /meta user count, fetching it once on first
// use (0 when the provider is unreachable — open the backend with Meta to
// surface that as an error instead).
func (b *Backend) NumUsers() int {
	b.mu.Lock()
	n := b.users
	b.mu.Unlock()
	if n > 0 {
		return n
	}
	//rewirelint:allow ctxflow osn.UserCounter is context-less by contract; timeout bounds the lazy fetch
	ctx, cancel := context.WithTimeout(context.Background(), b.opt.RequestTimeout)
	defer cancel()
	n, _ = b.Meta(ctx)
	return n
}

// RateLimit returns the latest provider-published quota feedback; ok is
// false until a response has carried X-RateLimit headers.
func (b *Backend) RateLimit() (osn.RateLimitInfo, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rl, b.rlSet
}

// Close releases idle connections held by the backend's transport.
func (b *Backend) Close() error {
	b.opt.Client.CloseIdleConnections()
	return nil
}

// do performs one request under the per-attempt deadline and maps the status
// code onto the error taxonomy. A 200 returns the (bounded) body and the
// response's ETag. A non-empty key names the request's revalidation-cache
// entry: its ETag goes out as If-None-Match, and a 304 returns its lists
// (cloned) as cached. Only the neighbor endpoints define 404 as "no such user"
// (idLookup); anywhere else — a mistyped base URL 404ing on /meta, say — a
// 404 stays a plain StatusError so configuration mistakes are not disguised
// as missing users.
func (b *Backend) do(ctx context.Context, method, rawURL string, payload []byte, key string, idLookup bool) (body []byte, etag string, cached [][]graph.NodeID, err error) {
	var entry *valEntry
	if key != "" {
		entry = b.cacheLookup(key)
	}
	actx, cancel := context.WithTimeout(ctx, b.opt.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, rawURL, rd)
	if err != nil {
		return nil, "", nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if entry != nil {
		req.Header.Set("If-None-Match", entry.etag)
	}
	resp, err := b.opt.Client.Do(req)
	if err != nil {
		return nil, "", nil, transportFailure(ctx, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxResponseBytes))
		resp.Body.Close()
	}()
	b.noteRateHeaders(resp.Header)
	switch {
	case resp.StatusCode == http.StatusOK:
		body, err = io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		if err != nil {
			return nil, "", nil, transportFailure(ctx, err)
		}
		return body, resp.Header.Get("ETag"), nil, nil
	case resp.StatusCode == http.StatusNotModified && entry != nil:
		b.revalidated.Add(1)
		return nil, "", cloneLists(entry.lists), nil
	case resp.StatusCode == http.StatusNotFound && idLookup:
		var er errorResponse
		body, _ := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		if json.Unmarshal(body, &er) == nil && er.Error != "" {
			return nil, "", nil, &noSuchUserError{id: er.ID, hasID: true}
		}
		return nil, "", nil, &noSuchUserError{ref: rawURL}
	default:
		return nil, "", nil, &StatusError{Code: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	}
}

// noteRateHeaders records X-RateLimit feedback when present.
func (b *Backend) noteRateHeaders(h http.Header) {
	rem := h.Get("X-RateLimit-Remaining")
	if rem == "" {
		return
	}
	var rl osn.RateLimitInfo
	rl.Remaining, _ = strconv.Atoi(rem)
	rl.Limit, _ = strconv.Atoi(h.Get("X-RateLimit-Limit"))
	if sec, err := strconv.ParseInt(h.Get("X-RateLimit-Reset"), 10, 64); err == nil && sec > 0 {
		rl.Reset = time.Unix(sec, 0)
	}
	b.mu.Lock()
	b.rl, b.rlSet = rl, true
	b.mu.Unlock()
}

// parseRetryAfter handles both forms of the header: delay-seconds and
// HTTP-date.
func parseRetryAfter(s string) time.Duration {
	if s == "" {
		return 0
	}
	if sec, err := strconv.Atoi(s); err == nil && sec >= 0 {
		return time.Duration(sec) * time.Second
	}
	if t, err := http.ParseTime(s); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// The http driver wraps a Backend in middleware with no adapter in between,
// so it implements the contract and both capabilities itself.
var (
	_ osn.Backend     = (*Backend)(nil)
	_ osn.UserCounter = (*Backend)(nil)
	_ osn.RateLimited = (*Backend)(nil)
)
