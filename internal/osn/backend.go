package osn

import (
	"context"
	"fmt"
	"iter"
	"time"

	"rewire/internal/graph"
)

// This file is the one home of the fetch-path contract: the Backend the
// Client wraps, its optional capabilities (UserCounter, RateLimited), the
// Unwrap chain middleware forms, and the per-id result IDErrors. The public
// rewire package re-exports each as an alias and documents the contract
// there.

// Backend is the driver contract the Client wraps: one batch-capable,
// context-first fetch of neighbor lists (the full contract is on
// rewire.Backend). The client issues single-id fetches and rejects any other
// list count, so a misbehaving backend fails the query instead of caching a
// wrong answer; a per-id *IDErrors fails that id alone. Everything the client
// layers on top — cache, singleflight, demand billing, budgets, prefetch — is
// backend-agnostic.
type Backend interface {
	Fetch(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, error)
}

// UserCounter is the optional Backend capability of publishing the total
// user count. Backends without it anywhere on their Unwrap chain report 0
// through Client.NumUsers.
type UserCounter interface {
	NumUsers() int
}

// RateLimitInfo is provider-published quota feedback, typically mirrored
// from X-RateLimit-* response headers.
type RateLimitInfo struct {
	// Limit and Remaining are the window quota and what is left of it.
	Limit, Remaining int
	// Reset is when the window replenishes (zero when unknown).
	Reset time.Time
}

// RateLimited is the optional Backend capability of reporting the provider's
// live quota state. ok is false until feedback has been observed.
type RateLimited interface {
	RateLimit() (RateLimitInfo, bool)
}

// Unwrapper is implemented by middleware that wraps another Backend, so
// capability probes can follow the chain to the backends inside.
type Unwrapper interface {
	Unwrap() Backend
}

// Chain yields b and then every backend on its Unwrap chain, outermost
// first.
func Chain(b Backend) iter.Seq[Backend] {
	return func(yield func(Backend) bool) {
		for cur := b; cur != nil && yield(cur); {
			u, ok := cur.(Unwrapper)
			if !ok {
				return
			}
			cur = u.Unwrap()
		}
	}
}

// IDErrors is the error a neighbor-list fetch returns when the round-trip
// itself succeeded but some ids failed on their own: Errs holds one entry per
// requested id, nil where that id's list is valid. An unknown id among
// strangers (ErrNoSuchUser) is the typical entry. Callers that treat a batch
// as all-or-nothing still match the entries' classes with errors.Is.
type IDErrors struct {
	Errs []error
}

// Error reports the single failure verbatim, or how many ids failed.
func (e *IDErrors) Error() string {
	errs := e.Unwrap()
	switch len(errs) {
	case 0:
		return "osn: no id failed"
	case 1:
		return errs[0].Error()
	}
	return fmt.Sprintf("%d of %d ids failed, first: %v", len(errs), len(e.Errs), errs[0])
}

// Unwrap returns the non-nil per-id errors, so errors.Is and errors.As see
// every failure class in the batch.
func (e *IDErrors) Unwrap() []error {
	var errs []error
	for _, err := range e.Errs {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// backendUsers resolves the UserCounter capability anywhere on be's Unwrap
// chain (0 when absent).
func backendUsers(be Backend) int {
	for b := range Chain(be) {
		if uc, ok := b.(UserCounter); ok {
			return uc.NumUsers()
		}
	}
	return 0
}
