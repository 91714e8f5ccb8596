package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Fatalf("quartiles(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if got, want := quartiles([]float64{1, 2, 3, 4, 5}), [3]float64{1.5, 3, 4.5}; got != want {
		t.Fatalf("quartiles(1..5) = %v, want %v", got, want)
	}
}

// runsOf builds one workload's synthetic runs of a single metric.
func runsOf(metric string, vals ...float64) map[string][]run {
	var rs []run
	for _, v := range vals {
		rs = append(rs, run{workload: "w", res: result{Correct: true, Metrics: map[string]metricValue{metric: {Value: v}}}})
	}
	return map[string][]run{"w": rs}
}

func specOf(name, better string, bound float64) benchSpec {
	return benchSpec{EndToEnd: []specMetric{{Name: name, Unit: "ms", Better: better, Bound: bound}}}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 70, 130, 80, 120, 90, 110, 65, 135}
	cases := []struct {
		name    string
		better  string
		parent  []float64
		change  []float64
		verdict string
	}{
		{"faster on every pair", "lower", steady, scale(steady, 0.8), verdictImproved},
		{"higher-is-better gain", "higher", steady, scale(steady, 1.2), verdictImproved},
		{"within the bound", "lower", steady, scale(steady, 1.05), verdictNoWorse},
		{"beyond the bound", "lower", steady, scale(steady, 1.2), verdictWorse},
		{"higher-is-better loss", "higher", steady, scale(steady, 0.8), verdictWorse},
		{"parent spread wider than the bound", "lower", wide, scale(wide, 1.02), verdictUnresolved},
		{"noisy parent, twice as slow", "lower", wide, scale(wide, 2), verdictWorse},
		{"noisy parent, every run slower", "lower", wide, []float64{145, 146, 147, 145, 146, 147, 145, 146, 147, 145}, verdictWorse},
		{"noisy parent, slightly slower", "lower", wide, scale(wide, 1.5), verdictUnresolved},
		{"noisy parent, higher-is-better quartered", "higher", wide, scale(wide, 0.25), verdictWorse},
		{"noisy parent, every run faster", "lower", wide, scale(wide, 0.4), verdictNoWorse},
		{"too few pairs to claim a gain", "lower", steady[:5], scale(steady[:5], 0.8), verdictNoWorse},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows := compareRuns(specOf("op_p50_ms", c.better, 0.1), runsOf("op_p50_ms", c.parent...), runsOf("op_p50_ms", c.change...))
			if len(rows) != 1 {
				t.Fatalf("got %d rows, want 1", len(rows))
			}
			if rows[0].verdict != c.verdict {
				t.Fatalf("verdict %q (wins %d/%d, parent %v, change %v), want %q",
					rows[0].verdict, rows[0].wins, rows[0].pairs, rows[0].parent, rows[0].change, c.verdict)
			}
		})
	}
}

func TestCompareReadsRunFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(side, name string, v float64) {
		if err := os.MkdirAll(filepath.Join(dir, side), 0o755); err != nil {
			t.Fatal(err)
		}
		inf, _ := json.Marshal(info{Workload: "paper-estimate", Seed: 1})
		res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"op_p50_ms": {v, "ms"}}})
		body := append(append(append(inf, '\n'), res...), '\n')
		if err := os.WriteFile(filepath.Join(dir, side, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{10, 10.1, 9.9} {
		write("parent", "run"+string(rune('a'+i)), v)
		write("change", "run"+string(rune('a'+i)), v*3)
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(filepath.Join(dir, "parent"))
	var out, errw nopWriter
	if code := compareMain([]string{filepath.Join(dir, "parent"), filepath.Join(dir, "change")}, &out, &errw); code != 1 {
		t.Fatalf("compare exit %d for a 3x slower change, want 1", code)
	}
	parent, err := loadRuns(filepath.Join(dir, "parent"))
	if err != nil {
		t.Fatal(err)
	}
	if got := values(parent["paper-estimate"], "op_p50_ms"); len(got) != 3 || got[0] != 10 || got[2] != 9.9 {
		t.Fatalf("runs read out of file order: %v", got)
	}
}

type nopWriter struct{}

func (*nopWriter) Write(p []byte) (int, error) { return len(p), nil }
