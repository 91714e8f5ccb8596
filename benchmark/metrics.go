package main

import (
	"math"
	"slices"
)

// metricDef names one reported metric and its unit. The lists below are the
// ones BENCHMARK.json declares; the smoke test checks the two agree.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees. Every workload reports
// every one of them on an untraced run.
var endToEndMetrics = []metricDef{
	{"samples_per_s", "1/s"},
	{"queries_per_ksample", "queries/ksample"},
	{"requests_per_ksample", "requests/ksample"},
	{"relerr", "ratio"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// perLayerMetrics break a traced run down by the repository's modules. A
// layer a workload does not exercise reads 0 for its counters; its timings
// come from the replay phase, which runs every layer in every workload.
var perLayerMetrics = []metricDef{
	{"walk.step_p50_us", "us"},
	{"walk.step_p99_us", "us"},
	{"walk.srw_steps_per_s", "1/s"},
	{"core.rewired_removed", "edges"},
	{"core.rewired_added", "edges"},
	{"core.step_warm_ns", "ns"},
	{"core.criterion_ns", "ns"},
	{"core.overlay_read_ns", "ns"},
	{"osn.hit_ns", "ns"},
	{"osn.miss_per_ksample", "ids/ksample"},
	{"osn.prefetch_fetched", "count"},
	{"osn.prefetch_unused_frac", "frac"},
	{"osn.prefetch_dropped", "count"},
	{"osn.cache_entries", "count"},
	{"batch.ids_per_batch", "ids"},
	{"batch.flush_idle_frac", "frac"},
	{"batch.flush_timer_frac", "frac"},
	{"batch.wait_us", "us"},
	{"backend.demand_p50_us", "us"},
	{"backend.demand_p99_us", "us"},
	{"wire.round_trips", "count/op"},
	{"wire.rtt_p50_us", "us"},
	{"wire.rtt_p99_us", "us"},
	{"wire.failures", "count"},
	{"httpsrc.server_p50_us", "us"},
	{"httpsrc.client_overhead_us", "us"},
	{"httpsrc.batch64_rt_us", "us"},
	{"durable.appends", "count"},
	{"durable.segments", "count"},
	{"durable.compactions", "count"},
	{"durable.replayed", "count"},
	{"durable.append_ns", "ns"},
	{"durable.append_fsync_us", "us"},
	{"durable.reopen_ms", "ms"},
	{"durable.warm_samples_per_s", "1/s"},
	{"serve.submit_p50_ms", "ms"},
	{"serve.first_line_p50_ms", "ms"},
	{"serve.stream_lines_per_s", "1/s"},
	{"serve.job_p99_ms", "ms"},
	{"estimate.relerr_mto", "ratio"},
	{"estimate.relerr_srw", "ratio"},
	{"estimate.burnin_steps_mto", "steps"},
	{"estimate.burnin_steps_srw", "steps"},
	{"estimate.converged_frac_mto", "frac"},
	{"estimate.converged_frac_srw", "frac"},
	{"go.alloc_bytes_per_sample", "B/sample"},
	{"go.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		if i := slices.IndexFunc(list, func(d metricDef) bool { return d.name == name }); i >= 0 {
			return list[i].unit
		}
	}
	return ""
}

// perLayer assembles a traced run's per-layer metrics. Counters and runtime
// figures come from the untraced pass (tracing allocates and slows); span
// timings come from the traced pass. Replay timings fill any layer the
// workload did not time itself, and always supply the isolated per-call
// costs.
func perLayer(w workload, plain, traced *pass, tr *tracer, rep map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		m[d.name] = 0
	}
	w.layers(plain, m)
	if plain.srwTime > 0 {
		m["walk.srw_steps_per_s"] = float64(plain.srwSteps) / plain.srwTime.Seconds()
	}
	if plain.samples > 0 {
		m["go.alloc_bytes_per_sample"] = plain.allocBytes / float64(plain.samples)
		m["osn.miss_per_ksample"] = 1000 * float64(plain.endCounts.demandIDs) / float64(plain.samples)
	}
	m["wire.round_trips"] = ratio(float64(plain.endCounts.requests), float64(plain.attempted))
	m["wire.failures"] = float64(plain.endCounts.wireFails)
	if plain.totalCPU > 0 {
		m["go.gc_cpu_frac"] = plain.gcCPU / plain.totalCPU
	}
	rate := func(p *pass) float64 { return float64(p.samples) / p.elapsed.Seconds() }
	m["trace.overhead_frac"] = 1 - rate(traced)/rate(plain)
	m["trace.spans"] = float64(tr.total())

	us := func(name string) []float64 { return durations(tr.spans(name), 1e3) }
	steps := us("session.step")
	m["walk.step_p50_us"] = quantile(steps, 0.5)
	m["walk.step_p99_us"] = quantile(steps, 0.99)
	demand, wire := us("backend.demand"), us("wire.fetch")
	m["backend.demand_p50_us"] = quantile(demand, 0.5)
	m["backend.demand_p99_us"] = quantile(demand, 0.99)
	m["wire.rtt_p50_us"] = quantile(wire, 0.5)
	m["wire.rtt_p99_us"] = quantile(wire, 0.99)
	// The time a demand spends above the wire: the batching window where
	// there is one, the taps' own overhead where there is not.
	m["batch.wait_us"] = mean(demand) - mean(wire)
	if server := us("httpsrc.serve"); len(server) > 0 {
		m["httpsrc.server_p50_us"] = quantile(server, 0.5)
	}

	for name, v := range rep {
		if replayFallback[name] && m[name] != 0 {
			continue
		}
		m[name] = v
	}
	return m
}

// replayFallback marks replay results that stand in only where the workload
// did not time the layer itself (a timing the workload took is never 0).
var replayFallback = map[string]bool{
	"httpsrc.server_p50_us":      true,
	"durable.reopen_ms":          true,
	"durable.warm_samples_per_s": true,
	"serve.submit_p50_ms":        true,
	"serve.first_line_p50_ms":    true,
	"serve.stream_lines_per_s":   true,
	"serve.job_p99_ms":           true,
}

// durations returns span lengths divided by unit nanoseconds.
func durations(spans []span, unit float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / unit
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relErr is |est-truth|/truth.
func relErr(est, truth float64) float64 { return math.Abs(est-truth) / truth }

// meanRelErr is the mean relative error of the estimates; NaN for none.
func meanRelErr(estimates []float64, truth float64) float64 {
	if len(estimates) == 0 {
		return math.NaN()
	}
	var s float64
	for _, e := range estimates {
		s += relErr(e, truth)
	}
	return s / float64(len(estimates))
}
