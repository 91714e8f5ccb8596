package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rewire"
)

// workload is one set of inputs the benchmark runs. The harness times its
// set-up, then drives op from clients() closed-loop callers — each calls the
// next op only after the previous one returned — until the run's seconds
// have passed and at least checked() ops have completed.
type workload interface {
	// setup builds the stack the measured phase drives; its duration is
	// setup_s.
	setup(ctx context.Context) error
	// reset prepares another pass over the same set-up. It is not timed.
	reset(ctx context.Context) error
	clients() int
	// checked is the size of the checked set: the first ops of every pass,
	// always run to completion, whose outputs are verified and whose exact
	// counters must repeat between the untraced and the traced pass.
	checked() int
	// op performs operation i. The same i performs the same work in every
	// pass, with inputs derived from the run's seed.
	op(ctx context.Context, p *pass, i int) (opResult, error)
	// counts returns the workload's cumulative counters; the harness takes
	// differences across a pass.
	counts() counts
	// verify checks the pass's outputs once its measured window closed.
	verify(ctx context.Context, p *pass) error
	// layers adds the workload's own per-layer metrics for the pass.
	layers(p *pass, m map[string]float64)
	// graph is the topology the workload samples; the replay phase runs
	// against it and its average degree is what every estimate targets.
	graph() *rewire.Graph
	// sizes describes the inputs, for the information line.
	sizes() map[string]any
	close() error
}

// opResult is what one operation reports to the harness.
type opResult struct {
	samples   int           // samples delivered to the caller
	srwSteps  int           // walk steps taken by SRW chains
	srwTime   time.Duration // time those SRW steps took
	estimates []float64     // average-degree estimates delivered to the caller
	exact     []uint64      // values that must repeat exactly between passes
}

// counts are cumulative counters a workload reads off its stack.
type counts struct {
	queries   int64 // unique queries billed by the providers' ledgers
	requests  int64 // round trips that reached the provider (wire taps)
	demandIDs int64 // ids the providers' caches missed (demand taps)
	wireFails int64 // failed round trips
}

func (a counts) sub(b counts) counts {
	return counts{a.queries - b.queries, a.requests - b.requests, a.demandIDs - b.demandIDs, a.wireFails - b.wireFails}
}

func (a counts) add(b counts) counts {
	return counts{a.queries + b.queries, a.requests + b.requests, a.demandIDs + b.demandIDs, a.wireFails + b.wireFails}
}

// pass collects one measured phase.
type pass struct {
	tr *tracer // nil for the untraced pass

	mu        sync.Mutex
	lat       []float64 // op latencies, ms
	samples   int64
	srwSteps  int64
	srwTime   time.Duration
	attempted int
	failed    int
	errs      []string
	exact     map[int][]uint64
	elapsed   time.Duration

	// Counter deltas: from the pass's start to the completion of its checked
	// set, and to its end.
	start          counts
	checkedCounts  counts
	endCounts      counts
	done           int
	checkedSamples int64
	estimates      []float64 // the checked set's estimates

	// Workload-specific sums and observation lists, keyed by name.
	acc  map[string]float64
	obsv map[string][]float64

	// Runtime deltas over the measured window.
	allocBytes, gcCPU, totalCPU float64
}

func newPass(tr *tracer) *pass {
	return &pass{tr: tr, exact: make(map[int][]uint64), acc: make(map[string]float64), obsv: make(map[string][]float64)}
}

// add accumulates workload-specific values under p's lock.
func (p *pass) add(name string, v float64) {
	p.mu.Lock()
	p.acc[name] += v
	p.mu.Unlock()
}

func (p *pass) get(name string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acc[name]
}

// obs records one observation of a distribution.
func (p *pass) obs(name string, v float64) {
	p.mu.Lock()
	p.obsv[name] = append(p.obsv[name], v)
	p.mu.Unlock()
}

func (p *pass) samplesOf(name string) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.obsv[name])
}

func (p *pass) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if len(p.errs) < 8 {
		p.errs = append(p.errs, err.Error())
	}
}

// measure runs the closed loop of w's callers over p.
func measure(ctx context.Context, w workload, p *pass, seconds float64) {
	window := time.Duration(seconds * float64(time.Second))
	checked := w.checked()
	p.start = w.counts()
	before := readRuntime()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	// No op outside the checked set starts before the set has completed, so
	// the counters taken at its completion cover its ops and no others.
	checkedDone := make(chan struct{})
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= checked {
					select {
					case <-checkedDone:
					case <-ctx.Done():
						return
					}
					if time.Since(start) >= window {
						return
					}
				}
				if runOp(ctx, w, p, i, checked) {
					counted := w.counts().sub(p.start)
					p.mu.Lock()
					p.checkedCounts = counted
					p.mu.Unlock()
					close(checkedDone)
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.endCounts = w.counts().sub(p.start)
	after := readRuntime()
	p.allocBytes = after.allocBytes - before.allocBytes
	p.gcCPU = after.gcCPU - before.gcCPU
	p.totalCPU = after.totalCPU - before.totalCPU
}

// runOp runs op i and reports whether it completed the checked set.
func runOp(ctx context.Context, w workload, p *pass, i, checked int) bool {
	var opSpan uint64
	var spanStart int64
	if p.tr != nil {
		opSpan = p.tr.newID()
		spanStart = p.tr.now()
		ctx = withSpan(ctx, opSpan)
	}
	t0 := time.Now()
	res, err := w.op(ctx, p, i)
	lat := time.Since(t0)
	if p.tr != nil {
		p.tr.add(span{name: "op", id: opSpan, start: spanStart, end: p.tr.now(), key1: "index", val1: int64(i)})
	}
	p.mu.Lock()
	p.attempted++
	p.lat = append(p.lat, float64(lat)/float64(time.Millisecond))
	p.samples += int64(res.samples)
	p.srwSteps += int64(res.srwSteps)
	p.srwTime += res.srwTime
	last := false
	if i < checked {
		p.exact[i] = res.exact
		p.checkedSamples += int64(res.samples)
		p.estimates = append(p.estimates, res.estimates...)
		p.done++
		last = p.done == checked
	}
	p.mu.Unlock()
	if err != nil {
		p.fail(fmt.Errorf("op %d: %w", i, err))
	}
	return last
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(p *pass, truth float64, setups []float64, peakRSS float64) map[string]float64 {
	ks := float64(p.checkedSamples) / 1000
	return map[string]float64{
		"samples_per_s":        float64(p.samples) / p.elapsed.Seconds(),
		"queries_per_ksample":  float64(p.checkedCounts.queries) / ks,
		"requests_per_ksample": float64(p.checkedCounts.requests) / ks,
		"relerr":               meanRelErr(p.estimates, truth),
		"op_p50_ms":            quantile(p.lat, 0.5),
		"op_p90_ms":            quantile(p.lat, 0.9),
		"setup_s":              quantile(setups, 0.5),
		"peak_rss_mib":         peakRSS,
	}
}

// exactMismatch reports the first checked op whose exact values differ
// between two passes.
func exactMismatch(a, b *pass, checked int) error {
	for i := 0; i < checked; i++ {
		if !slices.Equal(a.exact[i], b.exact[i]) {
			return fmt.Errorf("op %d: exact counters differ between the untraced and the traced pass: %v vs %v", i, a.exact[i], b.exact[i])
		}
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		case metrics.KindFloat64:
			return m.Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0]), val(s[1]), val(s[2])}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts VmHWM from the current resident set, so the peak
// covers the measured phase rather than set-up's transient garbage (graph
// generation dominates set-up's footprint and is reported as setup_s).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: unsupported kernels keep the set-up peak
}
