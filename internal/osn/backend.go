package osn

import (
	"context"
	"fmt"

	"rewire/internal/graph"
)

// Backend is the minimal driver contract the Client wraps: one batch-capable,
// context-first fetch. Everything the client layers on top — the sharded
// response cache, per-user singleflight, demand billing, budgets, the
// speculative prefetch pool — is backend-agnostic, so the same machinery
// serves a simulated provider (Service), a live HTTP endpoint, a read-only
// CSR snapshot, or anything a third party registers.
//
// Contract:
//
//   - Fetch returns exactly one Response per requested id, in input order, or
//     a non-nil error for the batch as a whole. Partial results are not
//     returned: a failed batch is all-failed. The client issues single-id
//     fetches on its demand path, so per-id granularity is preserved there —
//     and the SDK's coalescing middleware (rewire.WithBatching), which merges
//     those single-id fetches back into multi-id round-trips, keeps it by
//     reading per-id IDErrors from the public driver contract.
//   - An id outside the backend's user space fails with an error matching
//     ErrNoSuchUser (errors.Is).
//   - Fetch honors ctx: cancellation or deadline expiry aborts the in-flight
//     round-trip and returns the context's error.
//   - Returned neighbor slices are owned by the caller; the backend must not
//     retain or mutate them after returning (the client caches them forever).
//   - Fetch must be safe for concurrent use: the client overlaps misses for
//     different users, and the prefetch pool fetches speculatively alongside.
type Backend interface {
	Fetch(ctx context.Context, ids []graph.NodeID) ([]Response, error)
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
