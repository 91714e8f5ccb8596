package rewire

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"rewire/internal/core"
	"rewire/internal/graph"
)

// checkpointVersion is the envelope version this build reads and writes.
// Bump it on any incompatible change to the serialized layout; Resume
// rejects other versions with ErrCheckpointVersion.
const checkpointVersion = 1

// checkpointEnvelope is the serialized form of a paused session: the full
// construction config plus the per-walker chain state (position and RNG
// stream) and the MTO overlay's edge delta. It deliberately carries NO
// backend and NO cache: the bytes must be portable across processes, and the
// expensive state — the paid-for topology — lives in the Provider's cache,
// which the resuming caller reattaches via WithSource. Everything else a
// walker holds (verdict caches, frontier rankings, scratch buffers) is pure
// memoization of deterministic recomputation and is rebuilt lazily.
type checkpointEnvelope struct {
	// Version is serialized under the key "rewire_checkpoint" so the first
	// bytes of the JSON double as a file magic.
	Version     int              `json:"rewire_checkpoint"`
	Alg         string           `json:"alg"`
	Seed        uint64           `json:"seed"`
	PJump       float64          `json:"p_jump,omitempty"`
	Partitioned bool             `json:"partitioned,omitempty"`
	Core        core.Config      `json:"core"`
	Prefetch    *PrefetchOptions `json:"prefetch,omitempty"`
	Walkers     []walkerEnvelope `json:"walkers"`
	Overlay     *overlayEnvelope `json:"overlay,omitempty"`
}

// walkerEnvelope is one fleet member's chain state. Position plus the four
// xoshiro words fully determine every future draw; for RandomJump the one
// stream covers both the jump coin and the embedded MHRW.
type walkerEnvelope struct {
	Pos  NodeID    `json:"pos"`
	Rand [4]uint64 `json:"rand"`
}

// overlayEnvelope is the MTO overlay's rewiring delta: removed and added
// edges as canonical (u <= v) endpoint pairs, sorted, plus the pivots
// already spent on Theorem 4 replacements. The pivot set is load-bearing for
// byte-identical resumption: pivot availability is checked BEFORE the
// replacement coin is drawn, so losing it would desynchronize the resumed
// RNG stream from the uninterrupted run's.
type overlayEnvelope struct {
	Removed [][2]NodeID `json:"removed"`
	Added   [][2]NodeID `json:"added"`
	Pivots  []NodeID    `json:"pivots"`
}

// check rejects what no real overlay holds: self-loops, and node ids outside
// the source's n users (only negative ids when the source publishes no
// count).
func (o *overlayEnvelope) check(n int) error {
	bad := func(v NodeID) bool { return v < 0 || (n > 0 && int(v) >= n) }
	for _, pairs := range [][][2]NodeID{o.Removed, o.Added} {
		for _, p := range pairs {
			if p[0] == p[1] || bad(p[0]) || bad(p[1]) {
				return fmt.Errorf("rewire: checkpoint overlay edge %v is not an edge among %d users", p, n)
			}
		}
	}
	for _, v := range o.Pivots {
		if bad(v) {
			return fmt.Errorf("rewire: checkpoint overlay pivot %d outside %d users", v, n)
		}
	}
	return nil
}

func edgePairs(keys []graph.EdgeKey) [][2]NodeID {
	out := make([][2]NodeID, len(keys))
	for i, k := range keys {
		u, v := k.Nodes()
		out[i] = [2]NodeID{u, v}
	}
	return out
}

func edgeKeys(pairs [][2]NodeID) []graph.EdgeKey {
	out := make([]graph.EdgeKey, len(pairs))
	for i, p := range pairs {
		out[i] = graph.KeyOf(p[0], p[1])
	}
	return out
}

func algName(a Algorithm) string { return a.String() }

func algFromName(name string) (Algorithm, error) {
	for a := AlgMTO; a <= AlgRJ; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("rewire: checkpoint names unknown algorithm %q", name)
}

// Checkpoint serializes the session's resumable state — config, per-walker
// chain state, overlay delta — as a versioned, self-describing JSON envelope
// that Resume turns back into a live session, in this process or another.
// The output is deterministic: the same paused session always produces the
// same bytes.
//
// Only a quiescent session can be checkpointed: pause an active run first
// (Session.Pause, then let the stream drain) or wait for it to finish;
// during a run Checkpoint returns ErrActiveStream rather than racing the
// walker goroutines. The bytes carry no backend and no cache — resuming
// attaches a Source explicitly (WithSource), typically the same shared
// Provider whose cache made the walk cheap in the first place.
func (s *Session) Checkpoint(ctx context.Context) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	active := s.running
	s.mu.Unlock()
	if active {
		return nil, ErrActiveStream
	}
	members := s.fleet.Members()
	walkers := make([]walkerEnvelope, len(members))
	for i, m := range members {
		walkers[i] = walkerEnvelope{Pos: m.Current(), Rand: m.RandState()}
	}
	env := checkpointEnvelope{
		Version:     checkpointVersion,
		Alg:         algName(s.cfg.alg),
		Seed:        s.cfg.seed,
		PJump:       s.cfg.pJump,
		Partitioned: s.cfg.partitioned,
		Core:        s.cfg.core,
		Prefetch:    s.cfg.prefetch,
		Walkers:     walkers,
	}
	if s.overlay != nil {
		removed, added, pivots := s.overlay.Delta()
		env.Overlay = &overlayEnvelope{
			Removed: edgePairs(removed),
			Added:   edgePairs(added),
			Pivots:  pivots,
		}
	}
	return json.Marshal(env)
}

// Resume rebuilds a live session from Checkpoint bytes. The checkpoint
// fixes the chain — algorithm, fleet size, walker positions, RNG streams,
// overlay delta, seed — so the resumed session's future trajectory is
// byte-identical to the uninterrupted run's. What the checkpoint does NOT
// carry is the backend: pass one with WithSource — the same Provider for an
// in-process pause/resume, or a fresh one over the same URL after a process
// restart (the resumed walk then re-demands what the lost cache held, but
// follows the same nodes).
//
// Options that would change the chain (WithAlgorithm, WithFleet, WithStarts,
// WithSeed) are rejected; operational options — WithSource, WithPrefetch,
// budget and weight tuning — apply normally.
//
// An envelope whose overlay disagrees with its algorithm — an MTO chain
// without one, any other chain with one — is rejected. Bytes from an
// incompatible envelope version fail with ErrCheckpointVersion. Version 1 envelopes that carry the retired "shards"
// key, or Algorithm 1 settings under "core", still resume: the reader
// ignores those keys, since the sampler fixes those settings.
func Resume(ctx context.Context, data []byte, opts ...Option) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("rewire: malformed checkpoint: %w", err)
	}
	if env.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: envelope says %d, this build speaks %d",
			ErrCheckpointVersion, env.Version, checkpointVersion)
	}
	if len(env.Walkers) == 0 {
		return nil, fmt.Errorf("rewire: checkpoint carries no walkers")
	}
	alg, err := algFromName(env.Alg)
	if err != nil {
		return nil, err
	}
	// Every MTO checkpoint writes its overlay and no other chain has one: an
	// envelope that disagrees would resume a different chain without error.
	if (alg == AlgMTO) != (env.Overlay != nil) {
		return nil, fmt.Errorf("rewire: checkpoint overlay does not match algorithm %s", alg)
	}

	cfg := defaults()
	cfg.alg = alg
	cfg.seed = env.Seed
	cfg.partitioned = env.Partitioned
	cfg.core = env.Core
	// The envelope's fields pass the same validators as the options that
	// set them: the bytes may come from a state file, not this process.
	WithWeightMode(WeightMode(env.Core.Weights))(&cfg)
	if env.PJump > 0 {
		WithJumpProbability(env.PJump)(&cfg)
	}
	if env.Prefetch != nil {
		WithPrefetch(*env.Prefetch)(&cfg)
	}
	if cfg.err != nil {
		return nil, fmt.Errorf("rewire: checkpoint envelope: %w", cfg.err)
	}
	cfg.fleet = len(env.Walkers)
	cfg.starts = make([]NodeID, len(env.Walkers))
	for i, w := range env.Walkers {
		cfg.starts[i] = w.Pos
	}

	frozen := cfg // the chain-defining fields options must not touch
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	switch {
	case cfg.alg != frozen.alg:
		return nil, fmt.Errorf("rewire: Resume cannot change the algorithm (checkpoint is %s)", frozen.alg)
	case cfg.fleet != frozen.fleet || !slices.Equal(cfg.starts, frozen.starts):
		return nil, fmt.Errorf("rewire: Resume cannot change the fleet or its positions (checkpoint has %d walkers)", frozen.fleet)
	case cfg.seed != frozen.seed:
		return nil, fmt.Errorf("rewire: Resume cannot reseed — the checkpoint carries the live RNG streams")
	}
	if cfg.src == nil {
		return nil, fmt.Errorf("rewire: Resume needs a backend — checkpoints are backend-free, pass WithSource")
	}
	if env.Overlay != nil {
		if err := env.Overlay.check(cfg.src.NumUsers()); err != nil {
			return nil, err
		}
	}

	s, err := newSession(cfg.src, cfg)
	if err != nil {
		return nil, err
	}
	for i, m := range s.fleet.Members() {
		m.SetCurrent(env.Walkers[i].Pos)
		m.SetRandState(env.Walkers[i].Rand)
	}
	if env.Overlay != nil {
		s.overlay.RestoreDelta(edgeKeys(env.Overlay.Removed), edgeKeys(env.Overlay.Added), env.Overlay.Pivots)
	}
	return s, nil
}
