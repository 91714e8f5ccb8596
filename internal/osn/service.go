// Package osn simulates the restrictive web interface of an online social
// network, the access model the whole paper is built around (§II-A): the only
// operation is the individual-user query
//
//	q(v): SELECT * FROM D WHERE USER-ID = v
//
// which returns v's published attributes and the list of users connected to
// v. Real providers rate-limit these queries (the paper cites 600/600s for
// Facebook and 350/hour for Twitter); the Service reproduces that with a
// simulated clock, and the Client reproduces the paper's cost accounting —
// only *unique* queries count, duplicates are served from a local cache.
package osn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rewire/internal/graph"
)

// ErrNoSuchUser is returned for queries outside the user-ID space.
var ErrNoSuchUser = errors.New("osn: no such user")

// ErrBudgetExhausted is returned by a Client whose demand-query budget
// (SetBudget) would be exceeded by the next unique query. The walk that
// receives it can checkpoint and resume later with a fresh budget — the
// cache, the overlay, and every walker position survive.
var ErrBudgetExhausted = errors.New("osn: query budget exhausted")

// Response is the answer to one individual-user query.
type Response struct {
	User      graph.NodeID
	Neighbors []graph.NodeID // shared slice; callers must not modify
	Attrs     UserAttrs
}

// Config controls the simulated provider limits.
type Config struct {
	// QueriesPerWindow caps queries per Window; 0 disables rate limiting.
	QueriesPerWindow int
	// Window is the rate-limit window length (e.g. 600s).
	Window time.Duration
	// PerQueryLatency is the simulated round-trip time of one web request.
	// It advances only the simulated clock; the caller never blocks.
	PerQueryLatency time.Duration
	// RealLatency, when positive, makes every query actually block the
	// calling goroutine for that long, outside the admission lock — the
	// provider serves concurrent requests concurrently, each paying one
	// round-trip. This is what a walker fleet overlaps: k in-flight queries
	// cost one RealLatency of wall-clock, not k, while a sequential walker
	// pays them end to end. Leave 0 for pure simulated-time experiments.
	RealLatency time.Duration
}

// FacebookLimits mirrors the paper's cited Facebook quota: 600 open-graph
// queries per 600 seconds.
func FacebookLimits() Config {
	return Config{QueriesPerWindow: 600, Window: 600 * time.Second, PerQueryLatency: 50 * time.Millisecond}
}

// TwitterLimits mirrors the paper's cited Twitter quota: 350 requests/hour.
func TwitterLimits() Config {
	return Config{QueriesPerWindow: 350, Window: time.Hour, PerQueryLatency: 50 * time.Millisecond}
}

// Service owns a social graph and serves individual-user queries under the
// configured limits, advancing a simulated clock: when the current window's
// quota is exhausted the next query "sleeps" (jumps the clock) to the next
// window, exactly like a polite third-party crawler.
//
// Service is safe for concurrent use: the simulated clock and rate-limit
// window are mutex-guarded, so a fleet of walkers sharing one API quota sees
// the same serialized admission a real provider would enforce.
type Service struct {
	g     *graph.Graph
	attrs *Attributes
	cfg   Config

	mu           sync.Mutex
	now          time.Duration
	windowStart  time.Duration
	usedInWindow int

	totalQueries int64
	totalWaits   int64
}

// NewService creates a service over g with optional attributes (may be nil
// for purely topological datasets, like the paper's local snapshots).
func NewService(g *graph.Graph, attrs *Attributes, cfg Config) *Service {
	return &Service{g: g, attrs: attrs, cfg: cfg}
}

// NumUsers exposes the total user count. The paper notes providers publish
// this for advertising purposes; Random Jump needs it for its ID space.
func (s *Service) NumUsers() int { return s.g.NumNodes() }

// Query serves q(v), charging simulated latency and honoring the rate limit.
func (s *Service) Query(v graph.NodeID) (Response, error) {
	//rewirelint:allow ctxflow context-less convenience shim; ctx-aware callers use QueryContext
	return s.QueryContext(context.Background(), v)
}

// QueryContext serves q(v) like Query, but the RealLatency round-trip wait is
// interruptible: when ctx is cancelled or its deadline expires mid-sleep, the
// call returns ctx's error immediately instead of blocking out the full
// round-trip. Admission (the simulated clock and rate-limit window) has
// already happened by then — exactly like aborting an HTTP request after it
// was sent: the provider-side quota is spent, but no response is obtained, so
// the Client bills nothing for it.
func (s *Service) QueryContext(ctx context.Context, v graph.NodeID) (Response, error) {
	// A non-blocking receive polls cancellation without the mutex that
	// cancelCtx.Err takes.
	select {
	case <-ctx.Done():
		return Response{}, ctx.Err()
	default:
	}
	if v < 0 || int(v) >= s.g.NumNodes() {
		return Response{}, fmt.Errorf("%w: id %d", ErrNoSuchUser, v)
	}
	s.admitOne()
	if s.cfg.RealLatency > 0 {
		t := time.NewTimer(s.cfg.RealLatency)
		select {
		case <-ctx.Done():
			t.Stop()
			return Response{}, ctx.Err()
		case <-t.C:
		}
	}
	resp := Response{User: v, Neighbors: s.g.Neighbors(v)}
	if s.attrs != nil {
		resp.Attrs = s.attrs.Of(v)
	}
	return resp, nil
}

// Fetch implements Backend over the simulated provider: each id is served as
// one individual-user query in input order, so a batch of m ids spends m
// units of the rate-limit quota exactly as m separate queries would. The
// first failure aborts the batch.
func (s *Service) Fetch(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, error) {
	out := make([][]graph.NodeID, len(ids))
	for i, v := range ids {
		resp, err := s.QueryContext(ctx, v)
		if err != nil {
			return nil, err
		}
		out[i] = resp.Neighbors
	}
	return out, nil
}

// admitOne advances the simulated clock through latency and, if needed, a
// rate-limit wait.
func (s *Service) admitOne() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.QueriesPerWindow > 0 {
		if s.now-s.windowStart >= s.cfg.Window {
			// Window expired naturally.
			s.windowStart = s.now
			s.usedInWindow = 0
		}
		if s.usedInWindow >= s.cfg.QueriesPerWindow {
			// Sleep until the window resets.
			s.now = s.windowStart + s.cfg.Window
			s.windowStart = s.now
			s.usedInWindow = 0
			s.totalWaits++
		}
		s.usedInWindow++
	}
	s.now += s.cfg.PerQueryLatency
	s.totalQueries++
}

// TotalQueries returns the number of queries served (including duplicates —
// the Client is what deduplicates).
func (s *Service) TotalQueries() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalQueries
}

// RateLimitWaits returns how many times a caller had to sit out a window.
func (s *Service) RateLimitWaits() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalWaits
}

// SimulatedElapsed returns the simulated wall-clock time consumed so far.
func (s *Service) SimulatedElapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}
