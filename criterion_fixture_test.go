package rewire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"rewire/internal/core"
)

// The criterion fixture pins what single MTO walkers draw, bill and rewire
// on graphs where the removal criterion's Theorem 5 extension fires (a ring
// of gadgets) and on the small presets under a budget. Its transcript was
// written before the criterion learned to skip work it can prove redundant,
// so it holds every such shortcut to byte-identical walks.
const criterionFixture = "testdata/criterion-fixture.transcript.json"

// criterionRun is one run's transcript: a hash over every sample's node and
// weight, plus the run's bill, net rewiring and the sampler's counters.
type criterionRun struct {
	Name          string `json:"name"`
	Samples       int    `json:"samples"`
	Exhausted     bool   `json:"exhausted"`
	SampleHash    string `json:"sample_hash"`
	UniqueQueries int64  `json:"unique_queries"`
	Removed       int    `json:"removed"`
	Added         int    `json:"added"`
	Steps         int64  `json:"steps"`
	Examined      int64  `json:"examined"`
	Removals      int64  `json:"removals"`
	Replacements  int64  `json:"replacements"`
}

// gadgetRing links copies of the 8-node gadget in which only Theorem 5 can
// remove the edge (0, 1): both endpoints have degree 5 and share the two
// degree-2 neighbors 2 and 3. Copy i's node 7 links to copy i+1's node 4.
func gadgetRing(t testing.TB, copies int) *Graph {
	t.Helper()
	gadget := [][2]NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {0, 4}, {0, 5}, {1, 6}, {1, 7}}
	var edges [][2]NodeID
	for c := range copies {
		off := NodeID(8 * c)
		for _, e := range gadget {
			edges = append(edges, [2]NodeID{off + e[0], off + e[1]})
		}
		edges = append(edges, [2]NodeID{off + 7, NodeID(8*((c+1)%copies)) + 4})
	}
	g, err := NewGraph(8*copies, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runCriterion draws up to total samples from a single MTO walker over a
// simulated provider of g (capped at budget unique queries when positive).
func runCriterion(t testing.TB, name string, g *Graph, budget int64, total int, opts ...Option) criterionRun {
	t.Helper()
	p := Simulate(g, Limits{})
	if budget > 0 {
		p.SetBudget(budget)
	}
	s, err := NewSession(p, append([]Option{WithAlgorithm(AlgMTO)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := s.Samples(context.Background(), total)
	exhausted := errors.Is(err, ErrBudgetExhausted)
	if err != nil && !exhausted {
		t.Fatalf("%s: %v", name, err)
	}
	h := fnv.New64a()
	var buf [16]byte
	for _, smp := range samples {
		binary.LittleEndian.PutUint64(buf[:8], uint64(smp.Node))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(smp.Weight))
		h.Write(buf[:])
	}
	st := s.fleet.Members()[0].(*core.Sampler).Stats()
	removed, added := s.Rewired()
	return criterionRun{
		Name: name, Samples: len(samples), Exhausted: exhausted,
		SampleHash: fmt.Sprintf("%016x", h.Sum64()), UniqueQueries: p.UniqueQueries(),
		Removed: removed, Added: added,
		Steps: st.Steps, Examined: st.Examined, Removals: st.Removals, Replacements: st.Replacements,
	}
}

// criterionRuns is the fixture's schedule: the gadget ring with the
// extension on and off and under sampled weights, then seeds 1–6 of the
// small Slashdot B (minimum degree 4, so Theorem 5 never fires) and the
// small Epinions (minimum degree 3) under a 3000-query budget.
func criterionRuns(t testing.TB) []criterionRun {
	ring := gadgetRing(t, 40)
	runs := []criterionRun{
		runCriterion(t, "ring", ring, 0, 4000, WithSeed(1)),
		runCriterion(t, "ring/no-extension", ring, 0, 4000, WithSeed(1), WithExtendedCriterion(false)),
		runCriterion(t, "ring/sampled-weights", ring, 0, 4000, WithSeed(2), WithWeightMode(WeightSampled)),
	}
	for _, preset := range []string{"Slashdot B", "Epinions"} {
		g, err := PresetGraph(preset, false)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 6; seed++ {
			runs = append(runs, runCriterion(t, fmt.Sprintf("%s/seed%d", preset, seed), g, 3000, 20000, WithSeed(seed)))
		}
		runs = append(runs, runCriterion(t, preset+"/sampled-weights", g, 3000, 20000,
			WithSeed(1), WithWeightMode(WeightSampled)))
	}
	return runs
}

// TestCriterionFixtureTranscript replays the fixture's schedule and demands
// the recorded transcript run for run, and checks that the ring exercises
// Theorem 5: turning the extension off must change its walk.
func TestCriterionFixtureTranscript(t *testing.T) {
	got := criterionRuns(t)
	raw, err := os.ReadFile(criterionFixture)
	if err != nil {
		t.Fatal(err)
	}
	var want []criterionRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("schedule has %d runs, transcript %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %s diverges:\n got  %+v\n want %+v", want[i].Name, got[i], want[i])
		}
	}
	ext, noExt := got[0], got[1]
	if ext.SampleHash == noExt.SampleHash || ext.Removals <= noExt.Removals {
		t.Errorf("the ring does not exercise Theorem 5: with it %+v, without %+v", ext, noExt)
	}
}
