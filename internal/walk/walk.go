// Package walk implements the random-walk samplers the paper compares:
// Simple Random Walk (SRW, the baseline, Definition 1), Metropolis–Hastings
// Random Walk (MHRW, uniform target), and Random Jump (RJ, MHRW with uniform
// restarts). The MTO-Sampler itself lives in internal/core and plugs into
// the same Walker interface, which carries everything a fleet, an estimator
// or a checkpoint needs from a walker: its step, its stationary weight, its
// sticky failure and its restorable chain state.
//
// Walkers see the network only through a Source — either a *graph.Graph
// (free local access, for ground-truth computations) or an *osn.Client
// (the restrictive web interface with unique-query cost accounting).
package walk

import (
	"rewire/internal/graph"
	"rewire/internal/rng"
)

// Source is a read-only neighborhood oracle. *graph.Graph and *osn.Client
// both satisfy it.
type Source interface {
	// Neighbors returns v's neighbor list (shared slice, do not modify).
	Neighbors(v graph.NodeID) []graph.NodeID
	// Degree returns len(Neighbors(v)).
	Degree(v graph.NodeID) int
}

// Walker advances a Markov chain over nodes. It is the one contract every
// sampler meets — SRW, MHRW, RJ, the MTO-Sampler, and the Prefetched wrapper
// — so fleets, estimation sessions and checkpoints read weights, failures
// and chain state without probing for optional capabilities.
type Walker interface {
	// Current returns the node the walk is at.
	Current() graph.NodeID
	// Step advances one transition and returns the new current node.
	Step() graph.NodeID
	// StationaryWeight returns a value proportional to the stationary
	// probability π(v), which importance-sampling estimators use to unbias
	// aggregates (SRW: degree; MHRW/RJ: constant; MTO: overlay degree). It
	// may issue queries when the walker needs topology it has not seen.
	StationaryWeight(v graph.NodeID) float64
	// Err reports the sticky failure of the walker's query path
	// (cancellation, deadline, budget exhaustion); non-nil means the last
	// step or weight read observed garbage and further stepping is
	// pointless.
	Err() error
	// SetCurrent repositions the walker. Call it only between runs.
	SetCurrent(v graph.NodeID)
	// RandState captures the walker's RNG stream state. Position plus
	// stream is the complete per-member chain state: a walker restored with
	// SetCurrent and SetRandState continues the exact sample sequence the
	// original would have produced.
	RandState() [4]uint64
	// SetRandState restores a stream captured with RandState.
	SetRandState(s [4]uint64)
}

// chain is the state every baseline walker carries — source, position and
// RNG stream — and the Walker methods that only read or restore it.
type chain struct {
	src Source
	cur graph.NodeID
	rng *rng.Rand
}

// Current returns the walk position.
func (c *chain) Current() graph.NodeID { return c.cur }

// Err reports the source's sticky failure, if the source tracks one.
func (c *chain) Err() error { return sourceErr(c.src) }

// SetCurrent repositions the walk (between runs only).
func (c *chain) SetCurrent(v graph.NodeID) { c.cur = v }

// RandState captures the walker's RNG stream.
func (c *chain) RandState() [4]uint64 { return c.rng.State() }

// SetRandState restores a stream captured with RandState.
func (c *chain) SetRandState(s [4]uint64) { c.rng.SetState(s) }

// Simple is the paper's baseline SRW: from u, move to a uniformly random
// neighbor. Its stationary distribution is π(v) = deg(v)/2|E| on the
// component of the start node. A node with no neighbors is absorbing (the
// walk stays put), which cannot happen on connected inputs.
type Simple struct{ chain }

// NewSimple starts an SRW at start.
func NewSimple(src Source, start graph.NodeID, r *rng.Rand) *Simple {
	return &Simple{chain{src: src, cur: start, rng: r}}
}

// Step moves to a uniform random neighbor.
func (w *Simple) Step() graph.NodeID {
	nbrs := w.src.Neighbors(w.cur)
	if len(nbrs) > 0 {
		w.cur = rng.Choice(w.rng, nbrs)
	}
	return w.cur
}

// StationaryWeight is deg(v).
func (w *Simple) StationaryWeight(v graph.NodeID) float64 {
	return float64(w.src.Degree(v))
}

// MetropolisHastings is the MHRW sampler with a uniform target
// distribution: propose a uniform neighbor v of u, accept with probability
// min(1, deg(u)/deg(v)), else stay. Every proposal costs a query for v's
// degree — the reason the paper (citing [10], [14]) finds MHRW 1.5–8×
// slower than SRW in practice.
type MetropolisHastings struct{ chain }

// NewMetropolisHastings starts an MHRW at start.
func NewMetropolisHastings(src Source, start graph.NodeID, r *rng.Rand) *MetropolisHastings {
	return &MetropolisHastings{chain{src: src, cur: start, rng: r}}
}

// Step performs one propose/accept round.
func (w *MetropolisHastings) Step() graph.NodeID {
	nbrs := w.src.Neighbors(w.cur)
	if len(nbrs) == 0 {
		return w.cur
	}
	v := rng.Choice(w.rng, nbrs)
	ku := len(nbrs)
	kv := w.src.Degree(v) // costs a query on first contact
	if kv == 0 {
		// v is a neighbor of the current node, so its true degree is >= 1:
		// a zero can only mean the degree read failed (cancellation, budget
		// exhaustion on a failure-tracking source). Hold position rather
		// than commit an always-accept transition on garbage.
		return w.cur
	}
	if kv <= ku || w.rng.Float64() < float64(ku)/float64(kv) {
		w.cur = v
	}
	return w.cur
}

// StationaryWeight is constant: MHRW targets the uniform distribution.
func (w *MetropolisHastings) StationaryWeight(graph.NodeID) float64 { return 1 }

// RandomJump wraps MHRW with uniform restarts: with probability PJump the
// walk teleports to a uniformly random user ID (requiring the global ID
// space, which the paper notes is not available on every network), otherwise
// it performs an MHRW step. Uniform is stationary for both components, so
// the chain still targets the uniform distribution (the embedded MHRW's
// constant weight). The paper's experiments use PJump = 0.5. One RNG stream
// covers both the jump coin and the proposal draws.
type RandomJump struct {
	MetropolisHastings
	numUsers int
	pJump    float64
}

// NewRandomJump starts an RJ walker at start over an ID space of numUsers.
func NewRandomJump(src Source, start graph.NodeID, numUsers int, pJump float64, r *rng.Rand) *RandomJump {
	return &RandomJump{
		MetropolisHastings: MetropolisHastings{chain{src: src, cur: start, rng: r}},
		numUsers:           numUsers,
		pJump:              pJump,
	}
}

// Step jumps or performs an MHRW step.
func (w *RandomJump) Step() graph.NodeID {
	if w.rng.Bernoulli(w.pJump) {
		w.cur = graph.NodeID(w.rng.Intn(w.numUsers))
		// Touch the landing node so the jump is charged like any other
		// individual-user query.
		w.src.Neighbors(w.cur)
		return w.cur
	}
	return w.MetropolisHastings.Step()
}

// Interface conformance checks.
var (
	_ Walker = (*Simple)(nil)
	_ Walker = (*MetropolisHastings)(nil)
	_ Walker = (*RandomJump)(nil)
)

// Run advances w by n steps and returns the visited nodes (one entry per
// step, excluding the start).
func Run(w Walker, n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = w.Step()
	}
	return out
}
