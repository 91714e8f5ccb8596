package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// TestWorkloadsSmoke runs every workload at test scale, untraced and
// traced. Each run must pass its own output checks — the traced run also
// checks that its untraced and traced passes agree on every exact counter —
// and must emit exactly the metrics BENCHMARK.json declares, with their
// units.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 0.25, trace: traced, tiny: true, setups: 1, dir: t.TempDir()}
			cfg.traceOut = filepath.Join(cfg.dir, "trace.jsonl")
			var out bytes.Buffer
			if err := runWorkload(context.Background(), cfg, &out, io.Discard); err != nil {
				t.Fatalf("%s (traced %v): %v\n%s", w, traced, err, out.String())
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s: last line: %v", w, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s (traced %v): correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			checkNames(t, w, res, want)
		}
	}
}

func checkNames(t *testing.T, workload string, res result, want []specMetric) {
	t.Helper()
	var got, declared []string
	for name, m := range res.Metrics {
		got = append(got, name+" "+m.Unit)
	}
	for _, m := range want {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(declared)
	if !slices.Equal(got, declared) {
		t.Fatalf("%s emits %v, BENCHMARK.json declares %v", workload, got, declared)
	}
}
