package exp

import "rewire/internal/dataset"

// Dataset pairs a named graph with its generator; the presets themselves
// live in internal/dataset so the public SDK can share them without
// importing the experiment drivers.
type Dataset = dataset.Dataset

// DatasetSeed fixes the generator seed for every preset dataset, so all
// drivers and benches agree on the exact topologies.
const DatasetSeed = dataset.Seed

// SmallDatasets returns 1/10-scale counterparts for tests and quick benches.
func SmallDatasets() []Dataset { return dataset.Small() }

// Datasets selects full or small scale.
func Datasets(full bool) []Dataset { return dataset.All(full) }

// DatasetByName finds one preset (a Table I name or "Google Plus"),
// building only that one; nil when missing.
func DatasetByName(name string, full bool) *Dataset { return dataset.ByName(name, full) }
