package rewire

import (
	"errors"
	"fmt"

	"rewire/internal/osn"
)

// Sentinel errors of the public SDK. Match them with errors.Is: sampling
// paths wrap them with situational detail.
var (
	// ErrBudgetExhausted reports that the session's demand-query budget
	// (Provider.SetBudget) is spent. The session remains valid: raise the
	// budget and stream again — the cache, the overlay, and every walker
	// position survive, so sampling resumes exactly where it stopped.
	ErrBudgetExhausted = osn.ErrBudgetExhausted

	// ErrNoSuchUser reports a query outside the backend's user-ID space.
	ErrNoSuchUser = osn.ErrNoSuchUser

	// ErrDisconnected reports that a walker is positioned on a node with no
	// neighbors, so its chain cannot make progress. Start the session from a
	// connected node (WithStarts) to avoid it.
	ErrDisconnected = errors.New("rewire: walker start has no neighbors")

	// ErrActiveStream reports an attempt to start a stream or estimate on a
	// session whose previous run has not finished. Sessions serialize runs;
	// walkers are single-goroutine state.
	ErrActiveStream = errors.New("rewire: session already has an active run")

	// ErrNoOverlay reports an overlay operation on a session whose algorithm
	// does not rewire (anything but AlgMTO).
	ErrNoOverlay = errors.New("rewire: session has no rewired overlay")

	// ErrUnknownDriver reports an Open URL whose scheme has no registered
	// driver. The concrete error is an *UnknownDriverError carrying the
	// scheme, the offending URL, and the registered scheme list; match the
	// class with errors.Is(err, ErrUnknownDriver) and recover the details
	// with errors.As.
	ErrUnknownDriver = errors.New("rewire: no driver registered for scheme")

	// ErrPaused reports a run that stopped because Session.Pause asked it to:
	// the walkers quiesced at a step boundary and the session is ready to be
	// checkpointed (Session.Checkpoint) or streamed again. It is a clean,
	// expected stop — callers that treat it as a failure are mistaken.
	ErrPaused = errors.New("rewire: session paused")

	// ErrCheckpointVersion reports Resume bytes whose envelope version this
	// build does not speak — produced by an incompatible (usually newer)
	// rewire, or not a rewire checkpoint at all.
	ErrCheckpointVersion = errors.New("rewire: unsupported checkpoint version")
)

// UnknownDriverError is the concrete error Open and OpenBackend return for a
// URL whose scheme resolves to no registered driver. It wraps
// ErrUnknownDriver and carries enough context to render an actionable
// message: which scheme failed, in which URL, and which schemes would have
// worked.
type UnknownDriverError struct {
	// Scheme is the unresolvable scheme ("" when the URL had none at all).
	Scheme string
	// URL is the raw URL passed to Open.
	URL string
	// Drivers lists the registered schemes, sorted — the valid alternatives.
	Drivers []string
}

// Error implements error.
func (e *UnknownDriverError) Error() string {
	if e.Scheme == "" {
		return fmt.Sprintf("%v: %q has no scheme (registered: %v)", ErrUnknownDriver, e.URL, e.Drivers)
	}
	return fmt.Sprintf("%v: %q in %q (registered: %v)", ErrUnknownDriver, e.Scheme, e.URL, e.Drivers)
}

// Unwrap makes errors.Is(err, ErrUnknownDriver) match.
func (e *UnknownDriverError) Unwrap() error { return ErrUnknownDriver }
