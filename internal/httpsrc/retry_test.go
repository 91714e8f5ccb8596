package httpsrc_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rewire"
	"rewire/internal/graph"
	"rewire/internal/httpsrc"
)

// The driver makes single attempts; these tests pin its failure
// classification through the SDK's WithRetry, the composition the http
// driver opens.

// ringGraph is a small connected graph.
func ringGraph() *graph.Graph {
	b := graph.NewBuilder(10)
	for i := int32(0); i < 10; i++ {
		b.AddEdge(i, (i+1)%10)
		b.AddEdge(i, (i+3)%10)
	}
	return b.Build()
}

// fastRetry keeps retry delays test-sized.
var fastRetry = rewire.RetryOptions{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

// retrying opens a driver at baseURL (per-attempt deadline timeout) and wraps
// it in WithRetry(ro), returning both the bare driver and the stack.
func retrying(t *testing.T, baseURL string, timeout time.Duration, ro rewire.RetryOptions) (*httpsrc.Backend, rewire.Backend) {
	t.Helper()
	hb, err := httpsrc.New(httpsrc.Options{BaseURL: baseURL, RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hb.Close() })
	return hb, rewire.WithRetry(hb, ro)
}

func mustFetch(t *testing.T, b rewire.Backend, ids ...graph.NodeID) [][]graph.NodeID {
	t.Helper()
	lists, err := b.Fetch(context.Background(), ids)
	if err != nil {
		t.Fatalf("Fetch(%v): %v", ids, err)
	}
	if len(lists) != len(ids) {
		t.Fatalf("Fetch(%v) returned %d lists", ids, len(lists))
	}
	return lists
}

func TestRetryAfter429(t *testing.T) {
	g := ringGraph()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("X-RateLimit-Limit", "2")
			w.Header().Set("X-RateLimit-Remaining", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		httpsrc.Handler(g, httpsrc.ServerOptions{}).ServeHTTP(w, r)
	}))
	defer srv.Close()
	hb, b := retrying(t, srv.URL, 2*time.Second, fastRetry)
	lists := mustFetch(t, b, 4)
	if len(lists[0]) != g.Degree(4) {
		t.Fatalf("user 4: %d neighbors, want %d", len(lists[0]), g.Degree(4))
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 429s then success)", calls.Load())
	}
	rl, ok := hb.RateLimit()
	if !ok || rl.Limit != 2 || rl.Remaining != 0 {
		t.Fatalf("RateLimit = %+v, %v; want limit 2 remaining 0", rl, ok)
	}
}

// TestRateLimitedServerEmits429: a Retry-After beyond MaxDelay (an hour-long
// quota window) is returned at once, RetryAfter included, not slept out.
func TestRateLimitedServerEmits429(t *testing.T) {
	g := ringGraph()
	srv := httptest.NewServer(httpsrc.Handler(g, httpsrc.ServerOptions{QueriesPerWindow: 1, Window: time.Hour}))
	defer srv.Close()
	ro := fastRetry
	ro.MaxAttempts = 2
	_, b := retrying(t, srv.URL, 2*time.Second, ro)
	mustFetch(t, b, 0) // spends the window's only slot
	_, err := b.Fetch(context.Background(), []graph.NodeID{1})
	var se *httpsrc.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429 StatusError", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", se.RetryAfter)
	}
}

func TestRetry5xxThenSucceed(t *testing.T) {
	g := ringGraph()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusBadGateway)
			return
		}
		httpsrc.Handler(g, httpsrc.ServerOptions{}).ServeHTTP(w, r)
	}))
	defer srv.Close()
	_, b := retrying(t, srv.URL, 2*time.Second, fastRetry)
	mustFetch(t, b, 7)
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
}

func TestPermanent4xxDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "nope", http.StatusForbidden)
	}))
	defer srv.Close()
	_, b := retrying(t, srv.URL, 2*time.Second, fastRetry)
	_, err := b.Fetch(context.Background(), []graph.NodeID{0})
	var se *httpsrc.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusForbidden {
		t.Fatalf("err = %v, want 403 StatusError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want exactly 1 (no retry on 403)", calls.Load())
	}
}

func TestMalformedJSONIsPermanent(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Write([]byte(`{"results": [{"id": 0, "neighbors": [1,`)) // truncated
	}))
	defer srv.Close()
	_, b := retrying(t, srv.URL, 2*time.Second, fastRetry)
	_, err := b.Fetch(context.Background(), []graph.NodeID{0})
	var pe *httpsrc.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want ProtocolError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want 1 (garbage is not retried)", calls.Load())
	}
}

func TestCancellationMidBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests) // no Retry-After: backoff applies
	}))
	defer srv.Close()
	// Park the retry loop in a long sleep.
	_, b := retrying(t, srv.URL, 2*time.Second, rewire.RetryOptions{MaxAttempts: 4, BaseDelay: 10 * time.Second, MaxDelay: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Fetch(ctx, []graph.NodeID{0})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it land in the backoff sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Fetch did not return promptly after cancellation mid-backoff")
	}
}

func TestPerAttemptTimeoutRetries(t *testing.T) {
	g := ringGraph()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			select { // hang well past the per-attempt deadline
			case <-time.After(5 * time.Second):
			case <-r.Context().Done():
			}
			return
		}
		httpsrc.Handler(g, httpsrc.ServerOptions{}).ServeHTTP(w, r)
	}))
	defer srv.Close()
	_, b := retrying(t, srv.URL, 50*time.Millisecond, fastRetry)
	mustFetch(t, b, 2)
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2 (timeout then success)", calls.Load())
	}
}

// TestConnectionRefusedIsRetried pins the transport classification: a
// refused connection is transient, so WithRetry spends every attempt on it.
func TestConnectionRefusedIsRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens there now
	ro := fastRetry
	ro.MaxAttempts = 3
	hb, b := retrying(t, "http://"+addr, 2*time.Second, ro)
	_, err = b.Fetch(context.Background(), []graph.NodeID{0})
	var tmp interface{ Temporary() bool }
	if !errors.As(err, &tmp) || !tmp.Temporary() {
		t.Fatalf("err = %v, want a temporary transport error", err)
	}
	if n := hb.Stats().BatchPosts; n != 3 {
		t.Fatalf("%d attempts reached the wire, want all 3", n)
	}
}
