package rewire_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"rewire"
)

// runInterrupted streams from s until at least pauseAfter samples arrived,
// then pauses and drains; it returns everything delivered (possibly a few
// samples more than pauseAfter — the walkers finish their in-flight steps)
// and asserts the run ended with ErrPaused.
func runInterrupted(t *testing.T, s *rewire.Session, total, pauseAfter int) []rewire.Sample {
	t.Helper()
	var got []rewire.Sample
	var finalErr error
	for smp, err := range s.Stream(context.Background(), total) {
		if err != nil {
			finalErr = err
			break
		}
		got = append(got, smp)
		if len(got) == pauseAfter {
			s.Pause()
		}
	}
	if !errors.Is(finalErr, rewire.ErrPaused) {
		t.Fatalf("interrupted run ended with %v, want ErrPaused", finalErr)
	}
	if !errors.Is(s.Err(), rewire.ErrPaused) {
		t.Fatalf("Err() after pause = %v, want ErrPaused", s.Err())
	}
	if len(got) >= total {
		t.Fatalf("pause delivered the whole budget (%d samples): nothing left to resume", len(got))
	}
	return got
}

// TestCheckpointResumeByteIdentical is the satellite's acceptance bar: for
// every algorithm, pausing mid-run, checkpointing, and resuming in a fresh
// session yields exactly the trajectory — node for node, weight for weight —
// that the uninterrupted run produces. Single-walker sessions, because a
// racing fleet's merged arrival order is nondeterministic by design. The
// frontier rows pause, checkpoint and resume through the prefetch wrapper,
// which must hand the wrapped walker's chain state through untouched.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	frontier := rewire.WithPrefetch(rewire.PrefetchOptions{Strategy: rewire.PrefetchFrontier})
	cases := []struct {
		name string
		alg  rewire.Algorithm
		opts []rewire.Option
	}{
		{"MTO", rewire.AlgMTO, nil},
		{"SRW", rewire.AlgSRW, nil},
		{"MHRW", rewire.AlgMHRW, nil},
		{"RJ", rewire.AlgRJ, nil},
		{"MTO+frontier", rewire.AlgMTO, []rewire.Option{frontier}},
		{"SRW+frontier", rewire.AlgSRW, []rewire.Option{frontier}},
	}
	const total, pauseAfter = 400, 150
	for _, tc := range cases {
		alg := tc.alg
		t.Run(tc.name, func(t *testing.T) {
			g := rewire.Barbell(12)
			opts := append([]rewire.Option{rewire.WithAlgorithm(alg), rewire.WithSeed(7)}, tc.opts...)

			ref, err := rewire.NewSession(rewire.GraphSource(g), opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Samples(context.Background(), total)
			if err != nil {
				t.Fatal(err)
			}

			s1, err := rewire.NewSession(rewire.GraphSource(g), opts...)
			if err != nil {
				t.Fatal(err)
			}
			got := runInterrupted(t, s1, total, pauseAfter)

			data, err := s1.Checkpoint(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			s2, err := rewire.Resume(context.Background(), data, rewire.WithSource(rewire.GraphSource(g)))
			if err != nil {
				t.Fatal(err)
			}
			if r1, a1 := s1.Rewired(); true {
				if r2, a2 := s2.Rewired(); r1 != r2 || a1 != a2 {
					t.Fatalf("resumed overlay delta (%d,%d) != paused (%d,%d)", r2, a2, r1, a1)
				}
			}
			rest, err := s2.Samples(context.Background(), total-len(got))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rest...)

			if len(got) != len(want) {
				t.Fatalf("interrupted+resumed drew %d samples, uninterrupted %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s trajectory diverges at sample %d: got %+v, want %+v (pause at %d)",
						alg, i, got[i], want[i], pauseAfter)
				}
			}
		})
	}
}

// TestCheckpointResumeThenEstimateEqual: Estimate steps the fleet's members
// round-robin from member 0 on every call, so no schedule state lives outside
// the checkpoint — a k-walker session checkpointed after an Estimate and
// resumed elsewhere estimates exactly what the original does next.
func TestCheckpointResumeThenEstimateEqual(t *testing.T) {
	g, err := rewire.SocialGraph(400, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// 1001 is not a multiple of the fleet size: the first Estimate's
	// rotation ends mid-cycle.
	opt := rewire.EstimateOptions{Samples: 1001}
	for _, alg := range []rewire.Algorithm{rewire.AlgSRW, rewire.AlgMTO} {
		t.Run(alg.String(), func(t *testing.T) {
			src := rewire.GraphSource(g)
			s1, err := rewire.NewSession(src, rewire.WithAlgorithm(alg), rewire.WithFleet(3), rewire.WithSeed(11))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s1.Estimate(ctx, rewire.AvgDegree(), opt); err != nil {
				t.Fatal(err)
			}
			data, err := s1.Checkpoint(ctx)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := rewire.Resume(ctx, data, rewire.WithSource(src))
			if err != nil {
				t.Fatal(err)
			}
			r1, err := s1.Estimate(ctx, rewire.AvgDegree(), opt)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := s2.Estimate(ctx, rewire.AvgDegree(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if r1 != r2 {
				t.Errorf("next Estimate: original %+v, resumed %+v", r1, r2)
			}
		})
	}
}

// TestCheckpointBytesDeterministic: the same paused session checkpoints to
// the same bytes, and a resumed-but-not-yet-run session re-checkpoints to
// those bytes too — the envelope is state, not history.
func TestCheckpointBytesDeterministic(t *testing.T) {
	g := rewire.Barbell(10)
	s, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Samples(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	a, err := s.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two checkpoints of the same paused session differ")
	}
	r, err := rewire.Resume(context.Background(), a, rewire.WithSource(rewire.GraphSource(g)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("resume round-trip changed the checkpoint bytes")
	}
}

func checkpointedSession(t *testing.T) (data []byte, g *rewire.Graph) {
	t.Helper()
	g = rewire.Barbell(8)
	s, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Samples(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	data, err = s.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return data, g
}

func TestResumeRejectsVersionSkew(t *testing.T) {
	data, g := checkpointedSession(t)
	var env map[string]any
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env["rewire_checkpoint"] = 99
	skewed, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rewire.Resume(context.Background(), skewed, rewire.WithSource(rewire.GraphSource(g))); !errors.Is(err, rewire.ErrCheckpointVersion) {
		t.Fatalf("version 99 resumed with err = %v, want ErrCheckpointVersion", err)
	}
	// A JSON document that is not a checkpoint at all has version 0.
	if _, err := rewire.Resume(context.Background(), []byte(`{}`), rewire.WithSource(rewire.GraphSource(g))); !errors.Is(err, rewire.ErrCheckpointVersion) {
		t.Fatalf("non-checkpoint JSON resumed with err = %v, want ErrCheckpointVersion", err)
	}
	if _, err := rewire.Resume(context.Background(), []byte(`not json`), rewire.WithSource(rewire.GraphSource(g))); err == nil {
		t.Fatal("malformed bytes resumed")
	}
}

func TestResumeGuardsChainDefiningOptions(t *testing.T) {
	data, g := checkpointedSession(t)
	src := rewire.WithSource(rewire.GraphSource(g))
	cases := []struct {
		name string
		opts []rewire.Option
		want string
	}{
		{"no source", nil, "WithSource"},
		{"change algorithm", []rewire.Option{src, rewire.WithAlgorithm(rewire.AlgSRW)}, "algorithm"},
		{"change fleet", []rewire.Option{src, rewire.WithFleet(4)}, "fleet"},
		{"change starts", []rewire.Option{src, rewire.WithStarts(0, 1)}, "fleet"},
		{"reseed", []rewire.Option{src, rewire.WithSeed(99)}, "reseed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := rewire.Resume(context.Background(), data, tc.opts...)
			if err == nil {
				t.Fatal("Resume accepted a chain-changing option")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	// Operational options stay allowed.
	if _, err := rewire.Resume(context.Background(), data, src, rewire.WithPrefetch(rewire.PrefetchOptions{})); err != nil {
		t.Fatalf("operational option rejected: %v", err)
	}
}

func TestCheckpointDuringRunIsRefused(t *testing.T) {
	g := rewire.Barbell(8)
	s, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithAlgorithm(rewire.AlgSRW))
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	for range s.Nodes(context.Background(), 20) {
		if !checked {
			checked = true
			if _, err := s.Checkpoint(context.Background()); !errors.Is(err, rewire.ErrActiveStream) {
				t.Fatalf("Checkpoint mid-run = %v, want ErrActiveStream", err)
			}
		}
	}
	if !checked {
		t.Fatal("stream yielded nothing")
	}
}

// TestPauseLeavesSessionReusable: ErrPaused is a clean stop — the same
// session streams again without a checkpoint round-trip, and the pause
// request does not leak into the next run.
func TestPauseLeavesSessionReusable(t *testing.T) {
	g := rewire.Barbell(8)
	s, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	_ = runInterrupted(t, s, 200, 40)
	after, err := s.Samples(context.Background(), 50)
	if err != nil {
		t.Fatalf("post-pause run failed: %v", err)
	}
	if len(after) != 50 {
		t.Fatalf("post-pause run drew %d samples, want 50", len(after))
	}
	if s.Err() != nil {
		t.Fatalf("clean post-pause run left Err = %v", s.Err())
	}
}

// TestPauseWithNewSessionEquivalence: pausing and continuing IN PLACE (no
// serialization) must equal the uninterrupted run too — the cheaper of the
// two resume paths a service uses.
func TestPauseInPlaceContinuationByteIdentical(t *testing.T) {
	g := rewire.Barbell(12)
	ref, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithAlgorithm(rewire.AlgMHRW), rewire.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Samples(context.Background(), 300)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithAlgorithm(rewire.AlgMHRW), rewire.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	got := runInterrupted(t, s, 300, 100)
	rest, err := s.Samples(context.Background(), 300-len(got))
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, rest...)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("in-place continuation diverges at sample %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestOpenBackendUnknownDriverError(t *testing.T) {
	_, err := rewire.OpenBackend(context.Background(), "nosuch:thing")
	if !errors.Is(err, rewire.ErrUnknownDriver) {
		t.Fatalf("err = %v, want ErrUnknownDriver", err)
	}
	var ude *rewire.UnknownDriverError
	if !errors.As(err, &ude) {
		t.Fatalf("err %T is not *UnknownDriverError", err)
	}
	if ude.Scheme != "nosuch" || ude.URL != "nosuch:thing" || len(ude.Drivers) == 0 {
		t.Fatalf("UnknownDriverError fields = %+v", ude)
	}
	for i := 1; i < len(ude.Drivers); i++ {
		if ude.Drivers[i-1] >= ude.Drivers[i] {
			t.Fatalf("driver list not sorted: %v", ude.Drivers)
		}
	}
	if _, err := rewire.OpenBackend(context.Background(), "noscheme"); !errors.Is(err, rewire.ErrUnknownDriver) {
		t.Fatalf("scheme-less URL err = %v, want ErrUnknownDriver", err)
	}
}

// envelopePatch patches one top-level key of a real MTO checkpoint.
type envelopePatch struct {
	name  string
	key   string
	value any
}

// hostileEnvelopes are checkpoint envelopes that once crashed or hung the
// process inside Resume or the first run, or that Resume must refuse.
var hostileEnvelopes = []envelopePatch{
	{"prefetch queue 1<<40", "prefetch", map[string]any{"Queue": 1 << 40}},
	{"prefetch workers 2e7", "prefetch", map[string]any{"Workers": 20_000_000}},
	{"prefetch strategy 7", "prefetch", map[string]any{"Strategy": 7}},
	{"prefetch topk 1<<40", "prefetch", map[string]any{"Strategy": 1, "TopK": 1 << 40}},
	{"jump probability 5", "p_jump", 5.0},
	{"weight mode 7", "core", map[string]any{"Weights": 7}},
	{"overlay edge out of range", "overlay", map[string]any{"removed": [][2]int{}, "added": [][2]int{{0, 1 << 20}}, "pivots": []int{}}},
	{"overlay negative pivot", "overlay", map[string]any{"removed": [][2]int{}, "added": [][2]int{}, "pivots": []int{-1}}},
	{"overlay self-loop", "overlay", map[string]any{"removed": [][2]int{{2, 2}}, "added": [][2]int{}, "pivots": []int{}}},
	{"MTO without overlay", "overlay", nil},
	{"SRW with overlay", "alg", "SRW"},
}

// retiredKeys are envelope keys that version 1 checkpoints carry but this
// build ignores: the store shard count, and the Algorithm 1 settings that
// are now constants. Values that once crashed or hung Resume must now leave
// the chain untouched.
var retiredKeys = []envelopePatch{
	{"shards 1<<40", "shards", 1 << 40},
	{"shards MaxInt64", "shards", int64(math.MaxInt64)},
	{"shards negative", "shards", -4},
	{"inner re-pick cap 1<<40", "core", map[string]any{"MaxInner": 1 << 40, "LazyProb": 0}},
	{"overlay criterion", "core", map[string]any{"Criterion": 1}},
	{"no floor, unbounded pivots", "core", map[string]any{"DegreeFloor": 0, "PivotOnce": false}},
	{"replace coin 1, degree sample 1<<40", "core", map[string]any{"ReplaceProb": 1, "DegreeSample": 1 << 40}},
}

// simCheckpoint checkpoints a paused single-walker MTO session over a
// simulated barbell provider.
func simCheckpoint(t testing.TB, g *rewire.Graph) []byte {
	t.Helper()
	s, err := rewire.NewSession(rewire.Simulate(g, rewire.Limits{}), rewire.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Samples(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	data, err := s.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// patchEnvelope returns data with one top-level key replaced; an object
// value is merged into the object already under key.
func patchEnvelope(t testing.TB, data []byte, key string, value any) []byte {
	t.Helper()
	// UseNumber keeps the 64-bit RNG words exact through the round-trip.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var env map[string]any
	if err := dec.Decode(&env); err != nil {
		t.Fatal(err)
	}
	old, isObj := env[key].(map[string]any)
	if patch, ok := value.(map[string]any); ok && isObj {
		for k, v := range patch {
			old[k] = v
		}
		value = old
	}
	env[key] = value
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeRejectsHostileEnvelopes checks that Resume validates the sizes
// and node ids a checkpoint carries instead of trusting them: every envelope
// in hostileEnvelopes must fail with an error, promptly.
func TestResumeRejectsHostileEnvelopes(t *testing.T) {
	g := rewire.Barbell(6)
	data := simCheckpoint(t, g)
	for _, tc := range hostileEnvelopes {
		t.Run(tc.name, func(t *testing.T) {
			bad := patchEnvelope(t, data, tc.key, tc.value)
			s, err := rewire.Resume(context.Background(), bad, rewire.WithSource(rewire.Simulate(g, rewire.Limits{})))
			if err == nil {
				t.Fatalf("Resume accepted %s (session %v)", bad, s != nil)
			}
		})
	}
}

// TestResumeIgnoresRetiredKeys: whatever a checkpoint carries under a
// retired key, Resume succeeds and the session draws exactly the samples the
// unpatched checkpoint draws.
func TestResumeIgnoresRetiredKeys(t *testing.T) {
	g := rewire.Barbell(6)
	data := simCheckpoint(t, g)
	draw := func(t *testing.T, data []byte) []rewire.Sample {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s, err := rewire.Resume(ctx, data, rewire.WithSource(rewire.Simulate(g, rewire.Limits{})))
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Samples(ctx, 40)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := draw(t, data)
	for _, tc := range retiredKeys {
		t.Run(tc.name, func(t *testing.T) {
			if got := draw(t, patchEnvelope(t, data, tc.key, tc.value)); !slices.Equal(got, want) {
				t.Fatalf("patched checkpoint drew %v, want %v", got, want)
			}
		})
	}
}

// FuzzResume feeds arbitrary bytes to Resume over a small simulated
// barbell: it must never panic or hang, and any session it returns must
// draw 10 samples.
func FuzzResume(f *testing.F) {
	g := rewire.Barbell(6)
	data := simCheckpoint(f, g)
	f.Add(data)
	for _, tc := range slices.Concat(hostileEnvelopes, retiredKeys) {
		f.Add(patchEnvelope(f, data, tc.key, tc.value))
	}
	fixture, err := os.ReadFile("testdata/checkpoint-v1-mto-fleet.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	srw, err := rewire.NewSession(rewire.Simulate(g, rewire.Limits{}), rewire.WithAlgorithm(rewire.AlgRJ),
		rewire.WithFleet(3), rewire.WithPrefetch(rewire.PrefetchOptions{Strategy: rewire.PrefetchFrontier}))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := srw.Samples(context.Background(), 30); err != nil {
		f.Fatal(err)
	}
	if data, err = srw.Checkpoint(context.Background()); err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s, err := rewire.Resume(ctx, data, rewire.WithSource(rewire.Simulate(g, rewire.Limits{})))
		if err != nil {
			return
		}
		got, err := s.Samples(ctx, 10)
		if err != nil || len(got) != 10 {
			t.Fatalf("resumed session drew %d samples, err %v", len(got), err)
		}
	})
}
