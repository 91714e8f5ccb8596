// Command rewire-bench is the repository's end-to-end benchmark: four
// workloads that drive the public SDK and the serving daemon the way users
// do, from the paper's accuracy-per-query estimate to multi-tenant serving,
// plus a traced mode that breaks a run down by layer. See README.md.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash benchmark/run.sh --workload NAME|all --seed N [--seconds S] [--trace 0|1] [--trace-out FILE]
//	bash benchmark/run.sh compare PARENT_DIR CHANGE_DIR
//
// A run prints an information line (workload, seed, sizes, nproc,
// GOMAXPROCS, Go version) and, last, one JSON object with the keys correct,
// attempted, failed and metrics. It exits non-zero when an output check
// fails.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// workloadNames lists the workloads in the order `all` runs them.
var workloadNames = []string{"paper-estimate", "live-fleet", "durable-crawl", "serve-jobs"}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// tiny shrinks every input to test scale (the smoke test uses it).
	tiny bool
	// setups is how many times set-up runs for the setup_s median: once in
	// this process and setups-1 times in child processes, so every sample
	// pays the cold cost a user pays (preset graphs are cached per process).
	setups int
	// dir holds everything a run writes: scratch caches and traces.
	dir string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	cfg, setupOnly, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case setupOnly:
		err = setupChild(ctx, cfg, os.Stdout)
	case cfg.workload == "all":
		err = runAll(ctx, cfg, os.Stdout)
	default:
		err = runWorkload(ctx, cfg, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rewire-bench:", err)
		stop()
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, bool, error) {
	fs := flag.NewFlagSet("rewire-bench", flag.ContinueOnError)
	var cfg config
	var trace int
	var setupOnly bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 repeats the run traced and reports per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default under the scratch directory)")
	fs.BoolVar(&setupOnly, "setup-only", false, "time one set-up and exit (used for the setup_s repetitions)")
	if err := fs.Parse(args); err != nil {
		return cfg, false, err
	}
	if cfg.workload != "all" && !slices.Contains(workloadNames, cfg.workload) {
		return cfg, false, fmt.Errorf("unknown workload %q (want one of %v or all)", cfg.workload, workloadNames)
	}
	if trace != 0 && trace != 1 {
		return cfg, false, fmt.Errorf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		return cfg, false, fmt.Errorf("--seconds must be positive")
	}
	cfg.trace = trace == 1
	cfg.setups = 3
	cfg.dir = os.Getenv("REWIRE_BENCH_DIR")
	if cfg.dir == "" {
		cfg.dir = ".bench_build"
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(cfg.dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	}
	return cfg, setupOnly, nil
}

// gomaxprocs caps the scheduler at the CPUs present and at the two the load
// shape is sized for, so a run on a larger machine offers the same
// concurrency.
func gomaxprocs() int { return min(runtime.NumCPU(), 2) }

// setupChild times one cold set-up of the workload and prints it.
func setupChild(ctx context.Context, cfg config, out io.Writer) error {
	w, err := newWorkload(cfg, newTracer())
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = w.setup(ctx)
	d := time.Since(t0)
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(map[string]float64{"setup_s": d.Seconds()})
}

// timeSetupInChild runs setupChild in a fresh process.
func timeSetupInChild(ctx context.Context, cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	var r struct {
		Setup float64 `json:"setup_s"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(b), &r); err != nil {
		return 0, fmt.Errorf("set-up child output %q: %w", b, err)
	}
	return r.Setup, nil
}

// result is the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// info is the line before the result: what ran, where, at what size.
type info struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go"`
	Sizes      map[string]any `json:"sizes"`
	Ops        int            `json:"ops"`
	Setups     []float64      `json:"setup_samples_s"`
	Errors     []string       `json:"errors,omitempty"`
	TraceFile  string         `json:"trace_file,omitempty"`
}

// runWorkload runs one workload and prints its information and result
// lines. A failed output check still prints the result (correct: false) and
// then returns an error so the process exits non-zero.
func runWorkload(ctx context.Context, cfg config, out, logw io.Writer) error {
	tr := newTracer()
	benchMu.Lock()
	benchTracer = tr
	benchMu.Unlock()
	w, err := newWorkload(cfg, tr)
	if err != nil {
		return err
	}
	defer w.close()

	var setups []float64
	for i := 1; i < cfg.setups; i++ {
		s, err := timeSetupInChild(ctx, cfg)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	t0 := time.Now()
	if err := w.setup(ctx); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, time.Since(t0).Seconds())
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	var problems []string
	plain := newPass(nil)
	measure(ctx, w, plain, cfg.seconds)
	if err := w.verify(ctx, plain); err != nil {
		problems = append(problems, err.Error())
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	res := result{Metrics: map[string]metricValue{}}
	inf := info{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Sizes: w.sizes(), Setups: setups,
	}
	passes := []*pass{plain}
	if !cfg.trace {
		for name, v := range endToEnd(plain, avgDegree(w.graph()), setups, rss) {
			res.Metrics[name] = metricValue{v, unitOf(name)}
		}
	} else {
		traced, layers, errs, err := tracedRun(ctx, cfg, w, tr, plain)
		if err != nil {
			return err
		}
		for name, v := range layers {
			res.Metrics[name] = metricValue{v, unitOf(name)}
		}
		problems = append(problems, errs...)
		inf.TraceFile = cfg.traceOut
		passes = append(passes, traced)
	}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		problems = append(problems, p.errs...)
	}
	inf.Ops = plain.attempted
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is %v", name, m.Value))
			res.Metrics[name] = metricValue{0, m.Unit}
		}
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	inf.Errors = problems
	printTable(logw, cfg.workload, res)
	enc := json.NewEncoder(out)
	if err := enc.Encode(inf); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: output checks failed: %v", cfg.workload, problems)
	}
	return nil
}

// tracedRun repeats the measured phase with the tracer on, checks its exact
// counters against the untraced pass, runs the replay phase, writes the
// spans, and returns the per-layer metrics and any failed checks.
func tracedRun(ctx context.Context, cfg config, w workload, tr *tracer, plain *pass) (*pass, map[string]float64, []string, error) {
	if err := w.reset(ctx); err != nil {
		return nil, nil, nil, fmt.Errorf("reset for the traced pass: %w", err)
	}
	var problems []string
	traced := newPass(tr)
	tr.on.Store(true)
	measure(ctx, w, traced, cfg.seconds)
	if err := w.verify(ctx, traced); err != nil {
		problems = append(problems, "traced pass: "+err.Error())
	}
	if err := exactMismatch(plain, traced, w.checked()); err != nil {
		problems = append(problems, err.Error())
	}
	rep, err := replay(ctx, cfg, w.graph(), recordedNodes(tr))
	tr.on.Store(false)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("replay: %w", err)
	}
	if err := tr.write(cfg.traceOut); err != nil {
		return nil, nil, nil, fmt.Errorf("writing trace: %w", err)
	}
	return traced, perLayer(w, plain, traced, tr, rep), problems, nil
}

func printTable(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// runAll runs every workload, each in its own process, passing their output
// through, and ends with one line that merges the results.
func runAll(ctx context.Context, cfg config, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	var failed []string
	for _, name := range workloadNames {
		args := []string{"--workload", name, "--seed", strconv.FormatUint(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64)}
		if cfg.trace {
			args = append(args, "--trace", "1")
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		var last []byte
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			line := sc.Bytes()
			fmt.Fprintf(out, "%s\n", line)
			last = append(last[:0], line...)
		}
		runErr := cmd.Wait()
		var r result
		if err := json.Unmarshal(last, &r); err != nil || runErr != nil {
			failed = append(failed, name)
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for n, m := range r.Metrics {
			total.Metrics[name+"/"+n] = m
		}
	}
	if err := json.NewEncoder(out).Encode(total); err != nil {
		return err
	}
	if len(failed) > 0 || !total.Correct {
		return errors.New("some workloads failed: " + fmt.Sprint(failed))
	}
	return nil
}
