// Package dataset generates the paper's Table I stand-in datasets. It sits
// below both the public SDK (rewire.PresetGraph) and the experiment drivers
// (internal/exp), so either side can request the exact same topologies
// without depending on the other.
package dataset

import (
	"sync"
	"sync/atomic"

	"rewire/internal/gen"
	"rewire/internal/graph"
)

// Dataset pairs a named graph with its generator so drivers can request the
// paper's datasets by name at either scale.
type Dataset struct {
	Name  string
	Graph *graph.Graph
}

// Seed fixes the generator seed for every preset dataset, so all drivers and
// benches agree on the exact topologies.
const Seed = 20130408 // ICDE 2013 conference date

// tableI lists the paper's Table I datasets in its order.
var tableI = []string{"Epinions", "Slashdot A", "Slashdot B"}

// key names one preset at one scale.
type key struct {
	name string
	full bool
}

// builds counts generator runs, so tests can check that a request builds
// only the preset it names.
var builds atomic.Int64

// lazy defers build(seed) to the first request and shares its result: the
// graphs are immutable.
func lazy(build func(seed uint64) *graph.Graph, seed uint64) func() *graph.Graph {
	return sync.OnceValue(func() *graph.Graph {
		builds.Add(1)
		return build(seed)
	})
}

// presets holds every stand-in, Table I and Google Plus, at both scales. Each
// entry is generated once per process, on its first request.
var presets = map[key]func() *graph.Graph{
	{"Epinions", true}:     lazy(gen.EpinionsLike, Seed),
	{"Slashdot A", true}:   lazy(gen.SlashdotALike, Seed),
	{"Slashdot B", true}:   lazy(gen.SlashdotBLike, Seed),
	{"Google Plus", true}:  lazy(gen.GooglePlusLike, Seed),
	{"Epinions", false}:    lazy(gen.EpinionsLikeSmall, Seed),
	{"Slashdot A", false}:  lazy(gen.SlashdotLikeSmall, Seed),
	{"Slashdot B", false}:  lazy(gen.SlashdotLikeSmall, Seed+1),
	{"Google Plus", false}: lazy(gen.GooglePlusLikeSmall, Seed),
}

// Small returns the Table I datasets at 1/10 scale, for tests and quick
// benches.
func Small() []Dataset { return All(false) }

// All returns the paper's Table I datasets (Epinions, Slashdot A, Slashdot
// B) at full or small scale, building any not yet built.
func All(full bool) []Dataset {
	out := make([]Dataset, len(tableI))
	for i, name := range tableI {
		out[i] = *ByName(name, full)
	}
	return out
}

// ByName returns one preset — a Table I name or "Google Plus" — building
// only that one on first use; nil when the name is unknown.
func ByName(name string, full bool) *Dataset {
	build, ok := presets[key{name, full}]
	if !ok {
		return nil
	}
	return &Dataset{Name: name, Graph: build()}
}
