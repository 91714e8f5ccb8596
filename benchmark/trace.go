package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rewire"
)

// span is one timed interval at a layer boundary the benchmark owns. Times
// are nanoseconds since the tracer's origin. Two integer attributes cover
// every span kind recorded here (ids per fetch, walker and node, lines per
// stream) without a per-span map allocation.
type span struct {
	name       string
	id, parent uint64
	start, end int64
	key1, key2 string
	val1, val2 int64
}

func (s span) dur() int64 { return s.end - s.start }

func (s span) attr(key string) (int64, bool) {
	switch key {
	case s.key1:
		return s.val1, true
	case s.key2:
		return s.val2, true
	}
	return 0, false
}

// spanCap bounds the spans kept per name. Beyond it the buffer keeps an
// evenly spaced subsample (every 2nd, then every 4th, ... span), so a long
// run costs bounded memory and the kept spans still cover the whole run.
const spanCap = 1 << 15

type spanBuf struct {
	spans  []span
	seen   int64
	stride int64
}

// tracer keeps spans in memory while it is on and writes them when the run
// ends. Recording is a no-op while it is off, so the same instrumented stack
// serves the untraced and the traced pass.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	ids    atomic.Uint64

	mu   sync.Mutex
	bufs map[string]*spanBuf
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), bufs: make(map[string]*spanBuf)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// now returns the time since the tracer's origin.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	if s.id == 0 {
		s.id = t.newID()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bufs[s.name]
	if b == nil {
		b = &spanBuf{stride: 1}
		t.bufs[s.name] = b
	}
	n := b.seen
	b.seen++
	if n%b.stride != 0 {
		return
	}
	b.spans = append(b.spans, s)
	if len(b.spans) >= spanCap {
		kept := b.spans[:0]
		for i := 0; i < len(b.spans); i += 2 {
			kept = append(kept, b.spans[i])
		}
		b.spans = kept
		b.stride *= 2
	}
}

// spans returns a copy of the kept spans of one name.
func (t *tracer) spans(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b := t.bufs[name]; b != nil {
		return append([]span(nil), b.spans...)
	}
	return nil
}

// total counts the spans recorded, kept or not.
func (t *tracer) total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, b := range t.bufs {
		n += b.seen
	}
	return n
}

// write stores the kept spans as JSON lines: name, id, parent, start, end,
// attrs.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name   string           `json:"name"`
		ID     uint64           `json:"id"`
		Parent uint64           `json:"parent"`
		Start  int64            `json:"start"`
		End    int64            `json:"end"`
		Attrs  map[string]int64 `json:"attrs,omitempty"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		for _, s := range b.spans {
			l := line{Name: s.name, ID: s.id, Parent: s.parent, Start: s.start, End: s.end}
			if s.key1 != "" || s.key2 != "" {
				l.Attrs = make(map[string]int64, 2)
				if s.key1 != "" {
					l.Attrs[s.key1] = s.val1
				}
				if s.key2 != "" {
					l.Attrs[s.key2] = s.val2
				}
			}
			if err := enc.Encode(l); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// withSpan makes id the parent of spans recorded under ctx.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// tap is a Backend wrapper that counts fetches and, while its tracer is on,
// records one span per Fetch. Placed directly under BackendSource it sees
// every demand the provider's cache could not answer (backend.demand);
// placed around the opened driver, below any WithBatching, it sees every
// round-trip that reaches the provider (wire.fetch).
type tap struct {
	inner rewire.Backend
	name  string
	tr    *tracer

	calls, ids, failures atomic.Int64
}

func (t *tap) Unwrap() rewire.Backend { return t.inner }

func (t *tap) Fetch(ctx context.Context, ids []rewire.NodeID) ([][]rewire.NodeID, error) {
	on := t.tr.enabled()
	var start int64
	if on {
		start = t.tr.now()
	}
	lists, err := t.inner.Fetch(ctx, ids)
	t.count(len(ids), err)
	if on {
		t.tr.add(span{name: t.name, parent: spanFrom(ctx), start: start, end: t.tr.now(),
			key1: "ids", val1: int64(len(ids)), key2: "failed", val2: boolInt(err != nil)})
	}
	return lists, err
}

func (t *tap) count(ids int, err error) {
	t.calls.Add(1)
	t.ids.Add(int64(ids))
	if err != nil {
		t.failures.Add(1)
	}
}

// partialTap is a tap over a driver with per-id results. WithBatching probes
// PartialFetcher down the Unwrap chain, so a tap without FetchPartial would
// be stepped around: the dispatcher would call the driver directly and the
// tap would never see a batched round-trip.
type partialTap struct {
	*tap
	partial rewire.PartialFetcher
}

func (t *partialTap) FetchPartial(ctx context.Context, ids []rewire.NodeID) ([][]rewire.NodeID, []error, error) {
	on := t.tr.enabled()
	var start int64
	if on {
		start = t.tr.now()
	}
	lists, errs, err := t.partial.FetchPartial(ctx, ids)
	t.count(len(ids), err)
	if on {
		t.tr.add(span{name: t.name, parent: spanFrom(ctx), start: start, end: t.tr.now(),
			key1: "ids", val1: int64(len(ids)), key2: "failed", val2: boolInt(err != nil)})
	}
	return lists, errs, err
}

// demandTap wraps the backend a provider is built over.
func demandTap(b rewire.Backend, tr *tracer) rewire.Backend {
	return &tap{inner: b, name: "backend.demand", tr: tr}
}

// wireTap wraps an opened driver; the result implements PartialFetcher
// exactly when the driver does.
func wireTap(b rewire.Backend, tr *tracer) rewire.Backend {
	t := &tap{inner: b, name: "wire.fetch", tr: tr}
	if pf, ok := rewire.BackendAs[rewire.PartialFetcher](b); ok {
		return &partialTap{tap: t, partial: pf}
	}
	return t
}

// tapOf finds the tap of the given name on b's Unwrap chain.
func tapOf(b rewire.Backend, name string) *tap {
	for b != nil {
		switch t := b.(type) {
		case *tap:
			if t.name == name {
				return t
			}
		case *partialTap:
			if t.name == name {
				return t.tap
			}
		}
		u, ok := b.(rewire.BackendUnwrapper)
		if !ok {
			return nil
		}
		b = u.Unwrap()
	}
	return nil
}

// stackCounts reads the taps on a provider stack.
func stackCounts(stack rewire.Backend, queries int64) counts {
	c := counts{queries: queries}
	if t := tapOf(stack, "wire.fetch"); t != nil {
		c.requests, c.wireFails = t.calls.Load(), t.failures.Load()
	}
	if t := tapOf(stack, "backend.demand"); t != nil {
		c.demandIDs = t.ids.Load()
	}
	return c
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// handlerTap records one httpsrc.serve span per request a provider server
// answers.
func handlerTap(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		h.ServeHTTP(w, r)
		tr.add(span{name: "httpsrc.serve", start: start, end: tr.now(), key1: "bytes", val1: r.ContentLength})
	})
}

// The serving daemon opens its backend from a URL, so the benchmark reaches
// the daemon's stack through drivers of its own: bench-trace: wraps any
// other URL in the two taps, and bench-graph: serves a graph the benchmark
// registered in this process.
var (
	benchMu     sync.Mutex
	benchTracer *tracer
	benchTaps   = map[string]rewire.Backend{} // inner URL -> the stack last opened over it
	benchGraphs = map[string]*rewire.Graph{}
)

func init() {
	rewire.Register("bench-trace", rewire.DriverFunc(openBenchTrace))
	rewire.Register("bench-graph", rewire.DriverFunc(openBenchGraph))
}

// benchTraceURL names src behind the bench-trace driver.
func benchTraceURL(src string) string {
	return "bench-trace:?src=" + url.QueryEscape(src)
}

func openBenchTrace(ctx context.Context, u *url.URL) (rewire.Backend, error) {
	src := u.Query().Get("src")
	if src == "" {
		return nil, fmt.Errorf("bench-trace: needs src=")
	}
	inner, err := rewire.OpenBackend(ctx, src)
	if err != nil {
		return nil, err
	}
	benchMu.Lock()
	defer benchMu.Unlock()
	stack := demandTap(wireTap(inner, benchTracer), benchTracer)
	benchTaps[src] = stack
	return stack, nil
}

// openedBenchTrace returns the stack last opened over src.
func openedBenchTrace(src string) rewire.Backend {
	benchMu.Lock()
	defer benchMu.Unlock()
	return benchTaps[src]
}

func registerGraph(key string, g *rewire.Graph) string {
	benchMu.Lock()
	defer benchMu.Unlock()
	benchGraphs[key] = g
	return "bench-graph:" + key
}

// graphBackend serves an immutable in-memory graph. Rows are CSR views: the
// graph outlives every provider built over it and is never written.
type graphBackend struct{ g *rewire.Graph }

func (b graphBackend) Fetch(ctx context.Context, ids []rewire.NodeID) ([][]rewire.NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]rewire.NodeID, len(ids))
	for i, v := range ids {
		if v < 0 || int(v) >= b.g.NumNodes() {
			return nil, fmt.Errorf("%w: id %d", rewire.ErrNoSuchUser, v)
		}
		out[i] = b.g.Neighbors(v)
	}
	return out, nil
}

func (b graphBackend) NumUsers() int { return b.g.NumNodes() }

func openBenchGraph(_ context.Context, u *url.URL) (rewire.Backend, error) {
	benchMu.Lock()
	defer benchMu.Unlock()
	g := benchGraphs[u.Opaque]
	if g == nil {
		return nil, fmt.Errorf("bench-graph: no graph %q", u.Opaque)
	}
	return graphBackend{g}, nil
}
