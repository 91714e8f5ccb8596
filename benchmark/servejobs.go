package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	neturl "net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"rewire"
	"rewire/internal/serve"
)

// serveJobs drives the serving daemon over loopback HTTP the way API clients
// do: two clients, each submitting a job, streaming its JSON lines to the
// terminal line, and submitting the next. Jobs share one backend URL across
// four tenants, so later jobs hit what earlier tenants' walks cached. Each op
// is one client's pair of jobs with the same seed, MTO then SRW (a pair
// rather than a job, so the op latency is not a mixture of two modes).
//
// The daemon keeps every finished job's samples, so its memory grows with
// the jobs it served. Every round of pairs therefore gets a fresh daemon —
// a redeploy — which keeps peak_rss_mib a property of the round, not of how
// many jobs a faster or slower run fits into its window.
type serveJobs struct {
	cfg     config
	tr      *tracer
	full    bool
	samples int
	fleet   int
	tenants int
	pairs   int // checked set
	round   int // pairs per daemon

	// Ops hold mu shared; replacing the daemon holds it exclusively.
	mu    sync.RWMutex
	gen   int    // rounds begun
	prior counts // counters of replaced daemons

	g      *rewire.Graph
	inner  string // the backend URL the jobs sample
	src    string // inner behind the bench-trace driver, as jobs name it
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func newServeJobs(cfg config, tr *tracer) *serveJobs {
	w := &serveJobs{cfg: cfg, tr: tr, full: true, samples: 1000, fleet: 4, tenants: 4, pairs: 384, round: 384}
	if cfg.tiny {
		w.full, w.samples, w.pairs, w.round = false, 200, 4, 8
	}
	return w
}

func (w *serveJobs) sizes() map[string]any {
	return map[string]any{"graph": "Slashdot B", "full": w.full, "clients": 2, "samples_per_job": w.samples,
		"fleet": w.fleet, "tenants": w.tenants, "jobs_per_op": 2, "checked_pairs": w.pairs, "pairs_per_daemon": w.round}
}

func (w *serveJobs) setup(ctx context.Context) error {
	var err error
	if w.g, err = rewire.PresetGraph("Slashdot B", w.full); err != nil {
		return err
	}
	w.inner = fmt.Sprintf("sim:preset?name=Slashdot+B&full=%t", w.full)
	w.src = benchTraceURL(w.inner)
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	return w.start(ctx)
}

// start brings up a fresh daemon on loopback and runs one warm-up job, which
// opens the shared backend (the daemon opens backends on first use).
func (w *serveJobs) start(ctx context.Context) error {
	w.srv = serve.New(ctx, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	_, err = runJob(ctx, w.client, w.base, serve.JobSpec{Backend: w.src, Tenant: "t0", Samples: w.samples,
		Algorithm: "SRW", Fleet: w.fleet, Partitioned: true, Seed: 1}, nil)
	return err
}

func (w *serveJobs) stop() error {
	if w.hs == nil {
		return nil
	}
	w.hs.Close()
	err := <-w.served
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if cerr := w.srv.Close(); err == nil {
		err = cerr
	}
	w.hs, w.srv = nil, nil
	return err
}

// replace swaps in a fresh daemon, keeping the old one's counters.
func (w *serveJobs) replace(ctx context.Context) error {
	w.prior = w.prior.add(w.daemonCounts())
	if err := w.stop(); err != nil {
		return err
	}
	return w.start(ctx)
}

// reset starts the traced pass on a fresh daemon, so its shared cache starts
// as cold as the untraced pass's did.
func (w *serveJobs) reset(ctx context.Context) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gen = 0
	return w.replace(ctx)
}

func (w *serveJobs) clients() int         { return 2 }
func (w *serveJobs) checked() int         { return w.pairs }
func (w *serveJobs) graph() *rewire.Graph { return w.g }
func (w *serveJobs) close() error         { return w.stop() }

func (w *serveJobs) counts() counts {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.prior.add(w.daemonCounts())
}

// daemonCounts reads the current daemon's ledger through the API, as an
// operator would, and its stack's taps.
func (w *serveJobs) daemonCounts() counts {
	var c counts
	if infos, err := w.backends(context.Background()); err == nil {
		for _, b := range infos {
			if b.URL == w.src {
				c.queries = b.UniqueQueries
			}
		}
	}
	if stack := openedBenchTrace(w.inner); stack != nil {
		c = stackCounts(stack, c.queries)
	}
	return c
}

func (w *serveJobs) backends(ctx context.Context) ([]serve.BackendInfo, error) {
	var out struct {
		Backends []serve.BackendInfo `json:"backends"`
	}
	return out.Backends, getJSON(ctx, w.client, w.base+"/v1/backends", &out)
}

func (w *serveJobs) op(ctx context.Context, p *pass, i int) (opResult, error) {
	var res opResult
	if r := i / w.round; i%w.round == 0 && r > 0 {
		w.mu.Lock()
		var err error
		if w.gen < r {
			w.gen = r
			err = w.replace(ctx)
		}
		w.mu.Unlock()
		if err != nil {
			return res, fmt.Errorf("replacing the daemon: %w", err)
		}
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	seed := opSeed(w.cfg.seed, i)
	for _, alg := range []string{"MTO", "SRW"} {
		spec := serve.JobSpec{Backend: w.src, Tenant: fmt.Sprintf("t%d", i%w.tenants), Samples: w.samples,
			Algorithm: alg, Fleet: w.fleet, Partitioned: true, Seed: seed}
		t0 := time.Now()
		j, err := runJob(ctx, w.client, w.base, spec, p.tr)
		if err != nil {
			return res, fmt.Errorf("%s job: %w", alg, err)
		}
		res.samples += j.lines
		res.estimates = append(res.estimates, j.estimate)
		p.add("serve.lines", float64(j.lines))
		p.add("serve.stream_s", j.stream.Seconds())
		p.obs("serve.submit_ms", j.submit.Seconds()*1e3)
		p.obs("serve.first_line_ms", j.firstLine.Seconds()*1e3)
		p.obs("serve.job_ms", j.total.Seconds()*1e3)
		if alg == "SRW" {
			res.srwSteps += j.lines
			res.srwTime += time.Since(t0)
			// SRW trajectories do not depend on what the shared cache holds,
			// so they repeat exactly; MTO's Theorem 5 reads the cache, which
			// other tenants' jobs fill concurrently.
			res.exact = j.traj.hashes
		}
		if i < w.checked() {
			p.add("estimate.relerr_"+strings.ToLower(alg), relErr(j.estimate, avgDegree(w.g)))
		}
	}
	return res, nil
}

// jobRun is what one client observed of one job.
type jobRun struct {
	submit, firstLine, total, stream time.Duration
	lines                            int
	estimate                         float64
	traj                             *trajectory
}

// runJob submits spec, streams the job to its terminal line and checks it
// ended done with exactly its samples, indexed 1..n. While tr is on it
// records serve.job, serve.submit and serve.stream spans.
func runJob(ctx context.Context, c *http.Client, base string, spec serve.JobSpec, tr *tracer) (jobRun, error) {
	var j jobRun
	on := tr.enabled()
	var jobID uint64
	var t0 int64
	if on {
		jobID, t0 = tr.newID(), tr.now()
	}
	start := time.Now()
	body, err := json.Marshal(spec)
	if err != nil {
		return j, err
	}
	var sub struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := postJSON(ctx, c, base+"/v1/jobs", body, &sub); err != nil {
		return j, err
	}
	j.submit = time.Since(start)
	if on {
		tr.add(span{name: "serve.submit", parent: jobID, start: t0, end: tr.now()})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+sub.ID+"/stream", nil)
	if err != nil {
		return j, err
	}
	streamStart := time.Now()
	var s0 int64
	if on {
		s0 = tr.now()
	}
	resp, err := c.Do(req)
	if err != nil {
		return j, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return j, fmt.Errorf("stream: %s", resp.Status)
	}
	j.traj = newTrajectory(spec.Fleet)
	last := make([]int64, spec.Fleet)
	sc := bufio.NewScanner(resp.Body)
	var end struct {
		Index    int            `json:"index"`
		Sample   *rewire.Sample `json:"sample"`
		State    string         `json:"state"`
		Estimate *float64       `json:"estimate"`
		Error    string         `json:"error"`
	}
	for sc.Scan() {
		end.Index, end.Sample, end.State, end.Estimate, end.Error = 0, nil, "", nil, ""
		if err := json.Unmarshal(sc.Bytes(), &end); err != nil {
			return j, fmt.Errorf("stream line %q: %w", sc.Text(), err)
		}
		if end.Sample == nil {
			break
		}
		if j.lines == 0 {
			j.firstLine = time.Since(start)
		}
		j.lines++
		if end.Index != j.lines {
			return j, fmt.Errorf("stream line %d carries index %d", j.lines, end.Index)
		}
		smp := *end.Sample
		if smp.Walker < 0 || smp.Walker >= spec.Fleet {
			return j, fmt.Errorf("sample from walker %d of %d", smp.Walker, spec.Fleet)
		}
		if on {
			now := tr.now()
			if last[smp.Walker] == 0 {
				last[smp.Walker] = s0
			}
			tr.add(span{name: "session.step", parent: jobID, start: last[smp.Walker], end: now,
				key1: "walker", val1: int64(smp.Walker), key2: "node", val2: int64(smp.Node)})
			last[smp.Walker] = now
		}
		j.traj.step(smp)
	}
	if err := sc.Err(); err != nil {
		return j, err
	}
	j.total = time.Since(start)
	j.stream = time.Since(streamStart)
	if on {
		now := tr.now()
		tr.add(span{name: "serve.stream", parent: jobID, start: s0, end: now, key1: "lines", val1: int64(j.lines)})
		tr.add(span{name: "serve.job", id: jobID, start: t0, end: now})
	}
	switch {
	case end.State != "done":
		return j, fmt.Errorf("job %s ended %q (%s)", sub.ID, end.State, end.Error)
	case j.lines != spec.Samples:
		return j, fmt.Errorf("job %s streamed %d samples, want %d", sub.ID, j.lines, spec.Samples)
	case end.Estimate == nil || math.IsNaN(*end.Estimate) || math.IsInf(*end.Estimate, 0):
		return j, fmt.Errorf("job %s has no finite estimate", sub.ID)
	}
	j.estimate = *end.Estimate
	return j, checkCounts(j.traj, spec.Samples)
}

// verify checks the billing invariant through the public endpoints: the
// tenants' bills on the backend sum to its global ledger.
func (w *serveJobs) verify(ctx context.Context, p *pass) error {
	var tenants struct {
		Tenants map[string]map[string]rewire.TenantBill `json:"tenants"`
	}
	if err := getJSON(ctx, w.client, w.base+"/v1/tenants", &tenants); err != nil {
		return err
	}
	var sum int64
	for _, perURL := range tenants.Tenants {
		sum += perURL[w.src].Unique
	}
	infos, err := w.backends(ctx)
	if err != nil {
		return err
	}
	i := slices.IndexFunc(infos, func(b serve.BackendInfo) bool { return b.URL == w.src })
	if i < 0 {
		return fmt.Errorf("backend %s not listed", w.src)
	}
	if sum != infos[i].UniqueQueries {
		return fmt.Errorf("tenant bills sum to %d, the global ledger reads %d", sum, infos[i].UniqueQueries)
	}
	p.add("osn.cache_entries", float64(infos[i].CacheSize))
	return nil
}

func (w *serveJobs) layers(p *pass, m map[string]float64) {
	pairs := float64(w.checked())
	m["estimate.relerr_mto"] = p.get("estimate.relerr_mto") / pairs
	m["estimate.relerr_srw"] = p.get("estimate.relerr_srw") / pairs
	m["osn.cache_entries"] = p.get("osn.cache_entries")
	m["serve.submit_p50_ms"] = quantile(p.samplesOf("serve.submit_ms"), 0.5)
	m["serve.first_line_p50_ms"] = quantile(p.samplesOf("serve.first_line_ms"), 0.5)
	m["serve.job_p99_ms"] = quantile(p.samplesOf("serve.job_ms"), 0.99)
	m["serve.stream_lines_per_s"] = ratio(p.get("serve.lines"), p.get("serve.stream_s"))
}

func postJSON(ctx context.Context, c *http.Client, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(c, req, out)
}

func getJSON(ctx context.Context, c *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(c, req, out)
}

func doJSON(c *http.Client, req *http.Request, out any) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", req.Method, neturl.PathEscape(req.URL.Path), resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}
