package rewire

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"rewire/internal/walk"
)

// The v1 fixture is a checkpoint of a two-walker MTO fleet over a simulated
// SocialGraph(600, 2400, 11) provider, written by the envelope's first
// release: it carries the retired "shards" key and every Algorithm 1 setting
// the sampler once read from the envelope's "core" object. The transcript is
// what that release drew after resuming it.
const (
	fixtureV1Checkpoint = "testdata/checkpoint-v1-mto-fleet.json"
	fixtureV1Transcript = "testdata/checkpoint-v1-mto-fleet.transcript.json"
)

// fixtureTranscript is the fixed-schedule continuation of a resumed session:
// the members step round-robin from member 0 on the calling goroutine, so a
// shared-overlay fleet draws the same samples on every run.
type fixtureTranscript struct {
	Samples       []Sample `json:"samples"`
	UniqueQueries int64    `json:"unique_queries"`
}

// resumeTranscript resumes data onto a fresh simulated provider over g and
// records the next n round-robin steps.
func resumeTranscript(t testing.TB, data []byte, g *Graph, n int) fixtureTranscript {
	t.Helper()
	p := Simulate(g, Limits{})
	s, err := Resume(context.Background(), data, WithSource(p))
	if err != nil {
		t.Fatal(err)
	}
	members := s.fleet.Members()
	out := fixtureTranscript{Samples: make([]Sample, n)}
	for i := range out.Samples {
		w := i % len(members)
		v := members[w].Step()
		out.Samples[i] = Sample{Walker: w, Node: v, Weight: members[w].(walk.Weighter).StationaryWeight(v)}
	}
	if err := s.bound.Err(); err != nil {
		t.Fatal(err)
	}
	out.UniqueQueries = p.UniqueQueries()
	return out
}

// TestResumeV1FixtureTranscript: a checkpoint written before the envelope's
// core object lost its fixed settings still resumes, and continues exactly
// as it did under the release that wrote it.
func TestResumeV1FixtureTranscript(t *testing.T) {
	data, err := os.ReadFile(fixtureV1Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(fixtureV1Transcript)
	if err != nil {
		t.Fatal(err)
	}
	var want fixtureTranscript
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	g, err := SocialGraph(600, 2400, 11)
	if err != nil {
		t.Fatal(err)
	}
	got := resumeTranscript(t, data, g, len(want.Samples))
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("resumed fixture diverges at step %d: got %+v, want %+v", i, got.Samples[i], want.Samples[i])
		}
	}
	if got.UniqueQueries != want.UniqueQueries {
		t.Fatalf("resumed fixture billed %d unique queries, want %d", got.UniqueQueries, want.UniqueQueries)
	}
}
