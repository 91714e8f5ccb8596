package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one benchmark invocation's output: its information and result
// lines.
type run struct {
	file     string
	workload string
	res      result
}

// compareMain implements `compare PARENT_DIR CHANGE_DIR`: runs of the parent
// commit and of a change, stored one output per file, are paired in file
// order per workload and judged metric by metric against BENCHMARK.json's
// bounds. It exits 1 when a metric is worse.
func compareMain(args []string, out, errw io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(errw, "usage: compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(errw, "compare:", err)
		return 2
	}
	parent, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintln(errw, "compare:", err)
		return 2
	}
	change, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintln(errw, "compare:", err)
		return 2
	}
	rows := compareRuns(spec, parent, change)
	worse := false
	fmt.Fprintf(out, "%-15s %-21s %28s %28s %7s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, r := range rows {
		fmt.Fprintf(out, "%-15s %-21s %28s %28s %3d/%-3d  %s\n", r.workload, r.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.parent[1], r.parent[0], r.parent[2]),
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.change[1], r.change[0], r.change[2]),
			r.wins, r.pairs, r.verdict)
		worse = worse || r.verdict == verdictWorse
	}
	for _, w := range sortedKeys(parent) {
		pf, cf := failures(parent[w]), failures(change[w])
		if cf > pf {
			fmt.Fprintf(out, "%s: the change failed %d operations, the parent %d: no gain counts\n", w, cf, pf)
		}
	}
	if worse {
		return 1
	}
	return 0
}

const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

type compareRow struct {
	workload, metric string
	parent, change   [3]float64 // q1, median, q3
	wins, pairs      int
	verdict          string
}

// compareRuns judges every workload × end-to-end metric:
//
//   - improved: at least ten pairs, the change wins nine tenths of them (ties
//     count for neither), and the medians differ in its favour by more than
//     the distance between the parent's quartiles;
//   - worse: the change's median is worse than the parent's by more than the
//     bound, as a share of the parent's median — and, when the parent's own
//     spread (quartile distance over median) is wider than the bound, every
//     change run is worse than every parent run or the worsening exceeds the
//     bound plus that spread;
//   - unresolved: the parent's spread is wider than the bound, unless every
//     change run beats every parent run;
//   - no worse: otherwise.
func compareRuns(spec benchSpec, parent, change map[string][]run) []compareRow {
	var rows []compareRow
	for _, w := range sortedKeys(parent) {
		cr, ok := change[w]
		if !ok {
			continue
		}
		for _, m := range spec.EndToEnd {
			p, c := values(parent[w], m.Name), values(cr, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			lower := m.Better == "lower"
			better := func(a, b float64) bool { // a better than b
				if lower {
					return a < b
				}
				return a > b
			}
			row := compareRow{workload: w, metric: m.Name, parent: quartiles(p), change: quartiles(c)}
			row.pairs = min(len(p), len(c))
			for i := 0; i < row.pairs; i++ {
				if better(c[i], p[i]) {
					row.wins++
				}
			}
			pm, cm := row.parent[1], row.change[1]
			spread := row.parent[2] - row.parent[0]
			relSpread := spread / abs(pm)
			noisy := relSpread > m.Bound
			worsening := (cm - pm) / pm
			if !lower {
				worsening = -worsening
			}
			// Every change run better than every parent run: the change's
			// worst run beats the parent's best; and the other way round.
			bestC, worstC := slices.Max(c), slices.Min(c)
			bestP, worstP := slices.Max(p), slices.Min(p)
			if lower {
				bestC, worstC, bestP, worstP = worstC, bestC, worstP, bestP
			}
			allBetter, allWorse := better(worstC, bestP), better(worstP, bestC)
			switch {
			case row.pairs >= 10 && float64(row.wins) >= 0.9*float64(row.pairs) && better(cm, pm) && abs(cm-pm) > spread:
				row.verdict = verdictImproved
			case worsening > m.Bound && (!noisy || allWorse || worsening > m.Bound+relSpread):
				row.verdict = verdictWorse
			case noisy && !allBetter:
				row.verdict = verdictUnresolved
			default:
				row.verdict = verdictNoWorse
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// quartiles returns q1, median, q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func values(runs []run, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.res.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failures(runs []run) int {
	n := 0
	for _, r := range runs {
		n += r.res.Failed
		if !r.res.Correct {
			n++
		}
	}
	return n
}

func sortedKeys(m map[string][]run) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loadRuns reads every regular file in dir, in name order, as one run's
// output and groups the runs by workload.
func loadRuns(dir string) (map[string][]run, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]run)
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		r, err := parseRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		out[r.workload] = append(out[r.workload], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no runs", dir)
	}
	return out, nil
}

func parseRun(path string) (run, error) {
	r := run{file: path}
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var last []byte
	for sc.Scan() {
		line := sc.Bytes()
		var inf info
		if json.Unmarshal(line, &inf) == nil && inf.Workload != "" {
			r.workload = inf.Workload
		}
		last = append(last[:0], line...)
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if r.workload == "" {
		return r, errors.New("no information line naming the workload")
	}
	if err := json.Unmarshal(last, &r.res); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

// loadSpec reads BENCHMARK.json from the working directory or the nearest
// parent holding one.
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	dir, err := os.Getwd()
	if err != nil {
		return spec, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			return spec, json.Unmarshal(b, &spec)
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return spec, err
		}
		up := filepath.Dir(dir)
		if up == dir {
			return spec, errors.New("no BENCHMARK.json in the working directory or above")
		}
		dir = up
	}
}
