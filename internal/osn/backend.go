package osn

import (
	"context"
	"fmt"

	"rewire/internal/graph"
)

// Backend is the driver contract the Client wraps: one batch-capable,
// context-first fetch of neighbor lists. It has the same method set as the
// public rewire.Backend, so any SDK backend — middleware included — plugs
// into NewClient unconverted. Everything the client layers on top — the
// sharded neighbor-list cache, per-user singleflight, demand billing,
// budgets, the speculative prefetch pool — is backend-agnostic, so the same
// machinery serves a simulated provider (Service), a live HTTP endpoint, a
// read-only CSR snapshot, or anything a third party registers.
//
// Contract:
//
//   - Fetch returns exactly one neighbor list per requested id, in input
//     order, or a non-nil error. An empty list is a valid answer for an
//     isolated user. The client issues single-id fetches and rejects any
//     other list count, so a misbehaving backend fails the query instead of
//     caching a wrong answer.
//   - The one partial result is an *IDErrors: the round-trip succeeded but
//     some ids failed on their own, and lists[i] is valid wherever Errs[i] is
//     nil. The client treats it like any other error for its single id;
//     rewire.WithBatching, which merges single-id fetches into multi-id
//     round-trips, hands each entry to its own demander.
//   - An id outside the backend's user space fails with an error matching
//     ErrNoSuchUser (errors.Is).
//   - Fetch honors ctx: cancellation or deadline expiry aborts the in-flight
//     round-trip and returns the context's error.
//   - Returned lists are owned by the caller; the backend must not retain or
//     mutate them after returning (the client caches them forever).
//   - Fetch must be safe for concurrent use: the client overlaps misses for
//     different users, and the prefetch pool fetches speculatively alongside.
//
// Attributes are not part of the contract: the walk, the rewiring criteria
// and the stationary weights read only neighbor lists. Service.Query still
// answers the paper's full q(v), attributes included.
type Backend interface {
	Fetch(ctx context.Context, ids []graph.NodeID) ([][]graph.NodeID, error)
}

// UserCounter is the optional backend capability of publishing the total user
// count (the figure Random Jump needs for its ID space; the paper notes real
// providers publish it for advertising purposes). Backends without it report
// 0 through Client.NumUsers, and sessions over them must pin explicit starts.
type UserCounter interface {
	NumUsers() int
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

// backendUsers resolves the optional UserCounter capability (0 when absent).
func backendUsers(be Backend) int {
	if uc, ok := be.(UserCounter); ok {
		return uc.NumUsers()
	}
	return 0
}
