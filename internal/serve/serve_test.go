package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rewire"
	"rewire/internal/estimate"
	"rewire/internal/httpsrc"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(context.Background(), opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func request(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func submitJob(t *testing.T, base string, spec JobSpec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, data := request(t, http.MethodPost, base+"/v1/jobs", string(body))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, data)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &out); err != nil || out.ID == "" {
		t.Fatalf("submit: bad response %s (%v)", data, err)
	}
	return out.ID
}

// readStream follows the job's sample stream from index `from`, invoking
// onSample with the count read so far after each sample line, until the
// stream's closing state line arrives.
func readStream(t *testing.T, base, id string, from int, onSample func(n int)) ([]rewire.Sample, streamEvent) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?from=%d", base, id, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: status %d: %s", resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var samples []rewire.Sample
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream: bad line %q: %v", sc.Text(), err)
		}
		if ev.Sample != nil {
			samples = append(samples, *ev.Sample)
			if onSample != nil {
				onSample(len(samples))
			}
			continue
		}
		if ev.State != "" {
			return samples, ev
		}
		t.Fatalf("stream: line with neither sample nor state: %q", sc.Text())
	}
	t.Fatalf("stream for %s ended without a state line: %v", id, sc.Err())
	return nil, streamEvent{}
}

func jobStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	code, data := request(t, http.MethodGet, base+"/v1/jobs/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("status: %d: %s", code, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, base, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := jobStatus(t, base, id)
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (want %q): %+v", id, st.State, want, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitSamples(t *testing.T, base, id string, n int) JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := jobStatus(t, base, id)
		if st.Samples >= n || terminal(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s delivered %d samples (want >= %d)", id, st.Samples, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// directSamples runs the spec's option set as a plain SDK session over its
// own provider and returns the first n samples of its trajectory.
func directSamples(t *testing.T, url string, spec JobSpec, n int) ([]rewire.Sample, *rewire.Provider) {
	t.Helper()
	prov, err := rewire.Open(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov.Close() })
	if err := spec.normalize(); err != nil { // same defaulting Submit applies
		t.Fatal(err)
	}
	opts, err := spec.options()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := rewire.NewSession(prov, opts...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Samples(rewire.WithTenant(context.Background(), spec.Tenant), n)
	if err != nil {
		t.Fatal(err)
	}
	return out, prov
}

// TestConformanceWithDirectSession pins the tentpole's core promise: a job
// submitted over the HTTP API and a Session built directly from the
// equivalent functional options produce the identical trajectory, the
// identical unique-query bill, and the identical estimate.
func TestConformanceWithDirectSession(t *testing.T) {
	const url = "mem:social?nodes=300&edges=1200&seed=3"
	spec := JobSpec{Backend: url, Tenant: "alice", Samples: 800, Algorithm: "MTO", Seed: 9}
	s, ts := newTestServer(t, Options{})
	id := submitJob(t, ts.URL, spec)
	got, end := readStream(t, ts.URL, id, 0, nil)
	if end.State != StateDone {
		t.Fatalf("stream ended %q (err %q), want done", end.State, end.Error)
	}
	if len(got) != spec.Samples {
		t.Fatalf("HTTP job delivered %d samples, want %d", len(got), spec.Samples)
	}

	want, prov := directSamples(t, url, spec, spec.Samples)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: HTTP %+v, direct %+v", i, got[i], want[i])
		}
	}

	// Bills: the lone tenant carries the entire shared ledger, and it matches
	// the direct session's bill query for query.
	sb, err := s.backend(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	alice := sb.provider.TenantBill("alice").Unique
	if alice != prov.UniqueQueries() {
		t.Fatalf("HTTP job billed %d unique queries, direct session %d", alice, prov.UniqueQueries())
	}
	if global := sb.provider.UniqueQueries(); alice != global {
		t.Fatalf("alice's bill %d != shared ledger %d", alice, global)
	}

	// Estimate: exactly the SDK-side computation over the same samples.
	var is estimate.ImportanceSampler
	for _, smp := range want {
		deg, ok := prov.CachedDegree(smp.Node)
		if !ok {
			t.Fatalf("node %d not cached after the walk visited it", smp.Node)
		}
		if err := is.Add(float64(deg), smp.Weight); err != nil {
			t.Fatal(err)
		}
	}
	st := jobStatus(t, ts.URL, id)
	if st.Estimate == nil {
		t.Fatal("done job has no estimate")
	}
	if *st.Estimate != is.Estimate() {
		t.Fatalf("HTTP estimate %v, direct %v", *st.Estimate, is.Estimate())
	}
}

// TestConformanceFleetPartitioned extends conformance to a multi-walker
// partitioned job: merged arrival order is nondeterministic, but each
// walker's own subsequence — and the total bill — must match the direct run.
// MHRW keeps the walkers' chains independent (MTO's shared overlay makes
// multi-walker weights interleaving-dependent by design).
func TestConformanceFleetPartitioned(t *testing.T) {
	const url = "mem:social?nodes=400&edges=1600&seed=8"
	spec := JobSpec{Backend: url, Tenant: "fleet", Samples: 600, Fleet: 3, Seed: 17, Partitioned: true, Algorithm: "MHRW"}
	s, ts := newTestServer(t, Options{})
	id := submitJob(t, ts.URL, spec)
	got, end := readStream(t, ts.URL, id, 0, nil)
	if end.State != StateDone {
		t.Fatalf("stream ended %q (err %q), want done", end.State, end.Error)
	}
	want, prov := directSamples(t, url, spec, spec.Samples)
	byWalker := func(samples []rewire.Sample) map[int][]rewire.Sample {
		out := make(map[int][]rewire.Sample)
		for _, smp := range samples {
			out[smp.Walker] = append(out[smp.Walker], smp)
		}
		return out
	}
	gw, ww := byWalker(got), byWalker(want)
	if len(gw) != len(ww) {
		t.Fatalf("HTTP run used %d walkers, direct %d", len(gw), len(ww))
	}
	for w, wantSeq := range ww {
		gotSeq := gw[w]
		if len(gotSeq) != len(wantSeq) {
			t.Fatalf("walker %d: HTTP drew %d samples, direct %d", w, len(gotSeq), len(wantSeq))
		}
		for i := range wantSeq {
			if gotSeq[i] != wantSeq[i] {
				t.Fatalf("walker %d sample %d: HTTP %+v, direct %+v", w, i, gotSeq[i], wantSeq[i])
			}
		}
	}
	sb, err := s.backend(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sb.provider.TenantBill("fleet").Unique, prov.UniqueQueries(); got != want {
		t.Fatalf("HTTP fleet billed %d, direct %d", got, want)
	}
}

// TestTenantHammerSharedCache races 8 tenants' jobs over ONE shared backend
// (run under -race in CI) and asserts the billing-isolation invariant the
// tentpole rests on: per-tenant bills partition the global ledger exactly —
// cross-tenant cache hits are free, nothing is double-billed, nothing leaks.
func TestTenantHammerSharedCache(t *testing.T) {
	const url = "mem:social?nodes=500&edges=2000&seed=5"
	const tenants = 8
	s, ts := newTestServer(t, Options{})
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := JobSpec{
				Backend: url,
				Tenant:  fmt.Sprintf("tenant-%d", i),
				Samples: 300,
				Seed:    uint64(100 + i),
			}
			body, err := json.Marshal(spec)
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("tenant %d submit: %d: %s", i, resp.StatusCode, data)
				return
			}
			var out struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(data, &out); err != nil {
				errs <- err
				return
			}
			// Follow the stream to completion — concurrent stream handlers
			// are part of what the race detector should see.
			sr, err := http.Get(ts.URL + "/v1/jobs/" + out.ID + "/stream")
			if err != nil {
				errs <- err
				return
			}
			defer sr.Body.Close()
			sc := bufio.NewScanner(sr.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
			n := 0
			for sc.Scan() {
				var ev streamEvent
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					errs <- err
					return
				}
				if ev.Sample != nil {
					n++
					continue
				}
				if ev.State != StateDone {
					errs <- fmt.Errorf("tenant %d job ended %q: %s", i, ev.State, ev.Error)
				} else if n != spec.Samples {
					errs <- fmt.Errorf("tenant %d streamed %d samples, want %d", i, n, spec.Samples)
				}
				return
			}
			errs <- fmt.Errorf("tenant %d stream ended without a state line", i)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	sb, err := s.backend(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	global := sb.provider.UniqueQueries()
	var sum int64
	for name, perURL := range s.TenantBills() {
		bill := perURL[url]
		sum += bill.Unique
		if bill.Reserved != 0 {
			t.Fatalf("tenant %q left a dangling reservation: %+v", name, bill)
		}
	}
	if sum != global {
		t.Fatalf("tenant bills sum to %d, shared ledger says %d", sum, global)
	}
	if global == 0 || global > 500 {
		t.Fatalf("shared ledger %d outside (0, 500]: cache sharing broken", global)
	}

	// The same invariant must hold through the public endpoints.
	code, data := request(t, http.MethodGet, ts.URL+"/v1/tenants", "")
	if code != http.StatusOK {
		t.Fatalf("tenants: %d: %s", code, data)
	}
	var tl struct {
		Tenants map[string]map[string]rewire.TenantBill `json:"tenants"`
	}
	if err := json.Unmarshal(data, &tl); err != nil {
		t.Fatal(err)
	}
	var apiSum int64
	for _, perURL := range tl.Tenants {
		apiSum += perURL[url].Unique
	}
	code, data = request(t, http.MethodGet, ts.URL+"/v1/backends", "")
	if code != http.StatusOK {
		t.Fatalf("backends: %d: %s", code, data)
	}
	var bl struct {
		Backends []BackendInfo `json:"backends"`
	}
	if err := json.Unmarshal(data, &bl); err != nil {
		t.Fatal(err)
	}
	if len(bl.Backends) != 1 {
		t.Fatalf("got %d backends, want 1 shared", len(bl.Backends))
	}
	if apiSum != bl.Backends[0].UniqueQueries {
		t.Fatalf("API tenant sum %d != API ledger %d", apiSum, bl.Backends[0].UniqueQueries)
	}
}

// TestPauseResumeByteIdenticalOverHTTP is the acceptance scenario end to
// end: pause a live job mid-run over HTTP, resume it, and verify the
// stitched trajectory is byte-identical to an uninterrupted direct run of
// the same chain. The sim backend's real per-fetch latency paces the walk so
// the pause lands mid-run; the job's huge budget means it can never win the
// race by finishing first.
func TestPauseResumeByteIdenticalOverHTTP(t *testing.T) {
	const simURL = "sim:social?nodes=2000&edges=8000&seed=11&real=500us"
	const memURL = "mem:social?nodes=2000&edges=8000&seed=11"
	spec := JobSpec{Backend: simURL, Tenant: "walker", Samples: 1000000, Algorithm: "MTO", Seed: 4}
	_, ts := newTestServer(t, Options{})
	id := submitJob(t, ts.URL, spec)

	pause := func() {
		code, data := request(t, http.MethodPost, ts.URL+"/v1/jobs/"+id+"/pause", "")
		if code != http.StatusAccepted {
			t.Errorf("pause: %d: %s", code, data)
		}
	}
	var once1 sync.Once
	first, end := readStream(t, ts.URL, id, 0, func(n int) {
		if n >= 50 {
			once1.Do(pause)
		}
	})
	if end.State != StatePaused {
		t.Fatalf("stream ended %q (err %q), want paused", end.State, end.Error)
	}
	st := waitState(t, ts.URL, id, StatePaused)
	if st.Samples != len(first) {
		t.Fatalf("paused status reports %d samples, stream delivered %d", st.Samples, len(first))
	}

	code, cp := request(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/checkpoint", "")
	if code != http.StatusOK || !bytes.Contains(cp, []byte("rewire_checkpoint")) {
		t.Fatalf("checkpoint endpoint: %d: %.80s", code, cp)
	}

	code, data := request(t, http.MethodPost, ts.URL+"/v1/jobs/"+id+"/resume", "")
	if code != http.StatusAccepted {
		t.Fatalf("resume: %d: %s", code, data)
	}
	var once2 sync.Once
	second, end2 := readStream(t, ts.URL, id, len(first), func(n int) {
		if n >= 200 {
			once2.Do(pause)
		}
	})
	if end2.State != StatePaused {
		t.Fatalf("second stream ended %q (err %q), want paused", end2.State, end2.Error)
	}
	got := append(append([]rewire.Sample{}, first...), second...)

	// The uninterrupted reference walks the identical topology without the
	// sim latency (mem: and sim: build the same graph from the same spec).
	want, _ := directSamples(t, memURL, spec, len(got))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: paused-and-resumed %+v, uninterrupted %+v", i, got[i], want[i])
		}
	}
}

// TestDrainSaveLoadResume is the redeploy story: SIGTERM-style drain
// checkpoints the live job, SaveState persists it, a FRESH server process
// loads it, and resuming there continues the trajectory byte-identically —
// plus the tenant budget table survives the restart.
func TestDrainSaveLoadResume(t *testing.T) {
	const simURL = "sim:social?nodes=1500&edges=6000&seed=21&real=400us"
	const memURL = "mem:social?nodes=1500&edges=6000&seed=21"
	dir := t.TempDir()
	spec := JobSpec{Backend: simURL, Tenant: "crawler", Samples: 1000000, Seed: 6}

	s1 := New(context.Background(), Options{})
	ts1 := httptest.NewServer(s1.Handler())
	id := submitJob(t, ts1.URL, spec)
	waitSamples(t, ts1.URL, id, 30)
	code, data := request(t, http.MethodPost, ts1.URL+"/v1/tenants/crawler/budget",
		fmt.Sprintf(`{"backend": %q, "budget": 12345}`, simURL))
	if code != http.StatusOK {
		t.Fatalf("budget: %d: %s", code, data)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	// A draining server refuses new work and reports it on health.
	body, err := json.Marshal(JobSpec{Backend: simURL, Samples: 10})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := request(t, http.MethodPost, ts1.URL+"/v1/jobs", string(body)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", code)
	}
	if code, _ := request(t, http.MethodGet, ts1.URL+"/healthz", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", code)
	}
	st := waitState(t, ts1.URL, id, StatePaused)
	if err := s1.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server loads the state dir.
	s2 := New(context.Background(), Options{})
	if err := s2.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	st2 := jobStatus(t, ts2.URL, id)
	if st2.State != StatePaused || st2.Samples != st.Samples {
		t.Fatalf("restored job: %+v, want paused with %d samples", st2, st.Samples)
	}
	replay, endR := readStream(t, ts2.URL, id, 0, nil)
	if endR.State != StatePaused || len(replay) != st.Samples {
		t.Fatalf("restored replay: %d samples ending %q, want %d ending paused", len(replay), endR.State, st.Samples)
	}

	code, data = request(t, http.MethodPost, ts2.URL+"/v1/jobs/"+id+"/resume", "")
	if code != http.StatusAccepted {
		t.Fatalf("resume after restart: %d: %s", code, data)
	}
	// The persisted budget reached the freshly reopened provider.
	sb, err := s2.backend(context.Background(), simURL)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.provider.TenantBill("crawler").Budget; got != 12345 {
		t.Fatalf("restored budget %d, want 12345", got)
	}
	var once sync.Once
	second, end2 := readStream(t, ts2.URL, id, len(replay), func(n int) {
		if n >= 150 {
			once.Do(func() {
				if code, data := request(t, http.MethodPost, ts2.URL+"/v1/jobs/"+id+"/pause", ""); code != http.StatusAccepted {
					t.Errorf("pause: %d: %s", code, data)
				}
			})
		}
	})
	if end2.State != StatePaused {
		t.Fatalf("post-restart stream ended %q (err %q), want paused", end2.State, end2.Error)
	}
	got := append(append([]rewire.Sample{}, replay...), second...)
	want, _ := directSamples(t, memURL, spec, len(got))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d after restart: %+v, uninterrupted %+v", i, got[i], want[i])
		}
	}
}

// TestLoadStateSettlesJobs: a restored job is either resumable (paused with
// its checkpoint) or terminal. A record left "running" comes back cancelled,
// as SaveState writes it, so no follower waits on a job no runner can move;
// a record in a state this server does not know is refused by file name; and
// ids sort numerically even at the ends of the int range.
func TestLoadStateSettlesJobs(t *testing.T) {
	spec := JobSpec{Backend: "mem:social?nodes=100&edges=400&seed=1", Samples: 10}
	writeJobs := func(t *testing.T, jobs ...jobRecord) string {
		t.Helper()
		dir := t.TempDir()
		for _, jr := range jobs {
			if err := writeFileAtomic(filepath.Join(dir, "job-"+jr.ID+".json"), jr); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	s, ts := newTestServer(t, Options{})
	dir := writeJobs(t,
		jobRecord{ID: "j9223372036854775807", Spec: spec, State: StateDone},
		jobRecord{ID: "j-2", Spec: spec, State: StateRunning})
	if err := s.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if st := jobStatus(t, ts.URL, "j-2"); st.State != StateCancelled {
		t.Fatalf("restored running job is %q, want cancelled", st.State)
	}
	if _, end := readStream(t, ts.URL, "j-2", 0, nil); end.State != StateCancelled {
		t.Fatalf("restored running job's stream ended %q, want cancelled", end.State)
	}
	if want := []string{"j-2", "j9223372036854775807"}; !slices.Equal(s.order, want) {
		t.Fatalf("restored order %v, want %v", s.order, want)
	}

	bogus := writeJobs(t, jobRecord{ID: "j1", Spec: spec, State: "bogus"})
	s2 := New(context.Background(), Options{})
	defer s2.Close()
	if err := s2.LoadState(bogus); err == nil || !strings.Contains(err.Error(), "job-j1.json") {
		t.Fatalf("LoadState of an unknown state: err = %v, want one naming job-j1.json", err)
	}
}

// FuzzLoadState writes arbitrary bytes as a job record and loads it: never a
// panic, and every job LoadState restores is either paused with a checkpoint
// or terminal — the only states something can move forward or replay.
func FuzzLoadState(f *testing.F) {
	for _, seed := range []string{
		`{"id":"j1","spec":{"backend":"mem:social?nodes=100&edges=400&seed=1"},"state":"done","samples":[{"Walker":0,"Node":3,"Weight":2}]}`,
		`{"id":"j1","state":"running"}`,
		`{"id":"j1","state":"paused","checkpoint":{"rewire_checkpoint":1}}`,
		`{"id":"j1","state":"paused"}`,
		`{"id":"j1","state":"bogus"}`,
		`{"id":"j1","state":"failed","error":"boom"}`,
		`null`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "job-j1.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(context.Background(), Options{})
		defer s.Close()
		if err := s.LoadState(dir); err != nil {
			return
		}
		for _, id := range s.order {
			j := s.jobs[id]
			if !terminal(j.state) && (j.state != StatePaused || len(j.checkpoint) == 0) {
				t.Fatalf("restored job %s is %q (checkpoint %d bytes)", id, j.state, len(j.checkpoint))
			}
		}
	})
}

// fuzzBackend is the only backend URL the submit fuzzer lets a job open: a
// 60-node in-memory graph, so no input reaches the network or builds a large
// graph.
const fuzzBackend = "mem:social?nodes=60&edges=240&seed=1"

// postBody sends body to the handler without a socket and returns the status
// and response body.
func postBody(s *Server, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// FuzzSubmitJob POSTs arbitrary bodies to /v1/jobs, so decodeBody and the
// spec validator both run: never a panic, a body that does not decode or a
// spec that does not validate is a 400 that creates no job, and a 202 names
// the job it created. Specs naming another backend, or more than 4 walkers,
// are skipped; a job that starts is cancelled at once.
func FuzzSubmitJob(f *testing.F) {
	for _, seed := range []string{
		`{"backend":"` + fuzzBackend + `","samples":5}`,
		`{"backend":"` + fuzzBackend + `","algorithm":"SRW","fleet":2,"seed":3}`,
		`{"backend":"` + fuzzBackend + `","starts":[1,2],"removal":false,"weight_mode":"sampled"}`,
		`{"backend":"` + fuzzBackend + `","algorithm":"RJ","jump_prob":0.2,"budget":10,"tenant":"t"}`,
		`{"backend":"` + fuzzBackend + `","samples":-1}`,
		`{"backend":"` + fuzzBackend + `","algorithm":"BFS"}`,
		`{"backend":"` + fuzzBackend + `","weight_mode":"bogus"}`,
		`{"samples":5}`,
		`null`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		decodeErr := json.NewDecoder(bytes.NewReader(body)).Decode(&spec)
		if decodeErr == nil && ((spec.Backend != "" && spec.Backend != fuzzBackend) ||
			spec.Fleet > 4 || len(spec.Starts) > 4) {
			return
		}
		invalid := decodeErr != nil || spec.normalize() != nil
		s := New(context.Background(), Options{})
		defer s.Close()
		code, resp := postBody(s, "/v1/jobs", body)
		switch code {
		case http.StatusAccepted:
			if invalid {
				t.Fatalf("invalid spec accepted: %s", resp)
			}
			var out struct{ ID string }
			if err := json.Unmarshal(resp, &out); err != nil || s.jobs[out.ID] == nil {
				t.Fatalf("202 without a job: %s", resp)
			}
			_ = s.Cancel(out.ID)
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if len(s.order) != 0 {
				t.Fatalf("rejected spec (%d: %s) created jobs %v", code, resp, s.order)
			}
		default:
			t.Fatalf("status %d: %s", code, resp)
		}
	})
}

// FuzzBudget POSTs arbitrary bodies to /v1/tenants/{name}/budget: never a
// panic, a 400 for a body that does not decode or names no backend, and
// otherwise a 200 that records exactly the requested cap. Setting a cap opens
// no backend, so any URL in the body is safe.
func FuzzBudget(f *testing.F) {
	for _, seed := range []string{
		`{"backend":"` + fuzzBackend + `","budget":100}`,
		`{"backend":"` + fuzzBackend + `","budget":-1}`,
		`{"backend":"http://example.invalid/x","budget":0}`,
		`{"budget":5}`,
		`{"backend":7}`,
		`null`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req struct {
			Backend string `json:"backend"`
			Budget  int64  `json:"budget"`
		}
		decodeErr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		s := New(context.Background(), Options{})
		defer s.Close()
		code, resp := postBody(s, "/v1/tenants/t1/budget", body)
		switch {
		case code == http.StatusRequestEntityTooLarge:
		case decodeErr != nil || req.Backend == "":
			if code != http.StatusBadRequest || len(s.budgets) != 0 {
				t.Fatalf("bad request answered %d (%s), caps %v", code, resp, s.budgets)
			}
		case code != http.StatusOK:
			t.Fatalf("status %d: %s", code, resp)
		default:
			if got, ok := s.budgets["t1"][req.Backend]; !ok || got != req.Budget {
				t.Fatalf("cap for %q is %d (set %v), want %d", req.Backend, got, ok, req.Budget)
			}
		}
	})
}

// TestCancelRunningJob: DELETE aborts a live run and the stream reports why.
func TestCancelRunningJob(t *testing.T) {
	const simURL = "sim:social?nodes=1000&edges=4000&seed=9&real=400us"
	_, ts := newTestServer(t, Options{})
	id := submitJob(t, ts.URL, JobSpec{Backend: simURL, Samples: 1000000, Seed: 3})
	waitSamples(t, ts.URL, id, 5)
	if code, data := request(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, ""); code != http.StatusOK {
		t.Fatalf("cancel: %d: %s", code, data)
	}
	waitState(t, ts.URL, id, StateCancelled)
	_, end := readStream(t, ts.URL, id, 0, nil)
	if end.State != StateCancelled {
		t.Fatalf("stream ended %q, want cancelled", end.State)
	}
	// Idempotent; and a cancelled job cannot resume.
	if code, _ := request(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, ""); code != http.StatusOK {
		t.Fatalf("second cancel: %d, want 200", code)
	}
	if code, _ := request(t, http.MethodPost, ts.URL+"/v1/jobs/"+id+"/resume", ""); code != http.StatusConflict {
		t.Fatalf("resume of cancelled job: %d, want 409", code)
	}
}

// TestTenantBudgetFailsJob: a job whose tenant cap is too small for its walk
// fails with the budget error — and only that tenant is affected.
func TestTenantBudgetFailsJob(t *testing.T) {
	const url = "mem:social?nodes=500&edges=2000&seed=13"
	_, ts := newTestServer(t, Options{})
	id := submitJob(t, ts.URL, JobSpec{Backend: url, Tenant: "capped", Samples: 5000, Seed: 2, Budget: 40})
	st := waitState(t, ts.URL, id, StateFailed)
	if !strings.Contains(st.Error, "budget") {
		t.Fatalf("failed job error %q does not name the budget", st.Error)
	}
	// Another tenant on the same shared backend is untouched.
	id2 := submitJob(t, ts.URL, JobSpec{Backend: url, Tenant: "free", Samples: 200, Seed: 2})
	_, end := readStream(t, ts.URL, id2, 0, nil)
	if end.State != StateDone {
		t.Fatalf("free tenant's job ended %q (err %q), want done", end.State, end.Error)
	}
}

// TestMaxJobsPerTenant: the per-tenant concurrency cap returns 429 for the
// capped tenant and leaves others unaffected.
func TestMaxJobsPerTenant(t *testing.T) {
	const simURL = "sim:social?nodes=1000&edges=4000&seed=7&real=400us"
	_, ts := newTestServer(t, Options{MaxJobsPerTenant: 1})
	submitJob(t, ts.URL, JobSpec{Backend: simURL, Tenant: "busy", Samples: 1000000})
	body, err := json.Marshal(JobSpec{Backend: simURL, Tenant: "busy", Samples: 10})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := request(t, http.MethodPost, ts.URL+"/v1/jobs", string(body)); code != http.StatusTooManyRequests {
		t.Fatalf("second job for capped tenant: %d, want 429", code)
	}
	id := submitJob(t, ts.URL, JobSpec{Backend: simURL, Tenant: "other", Samples: 50})
	_, end := readStream(t, ts.URL, id, 0, nil)
	if end.State != StateDone {
		t.Fatalf("other tenant's job ended %q, want done", end.State)
	}
}

// TestRateLimitedBackendConforms: the service-wide rate-limit middleware
// slows fetches without changing the trajectory.
func TestRateLimitedBackendConforms(t *testing.T) {
	const url = "mem:social?nodes=200&edges=800&seed=4"
	spec := JobSpec{Backend: url, Samples: 150, Seed: 5}
	_, ts := newTestServer(t, Options{RateLimitRPS: 5000, RateLimitBurst: 50})
	id := submitJob(t, ts.URL, spec)
	got, end := readStream(t, ts.URL, id, 0, nil)
	if end.State != StateDone {
		t.Fatalf("stream ended %q (err %q), want done", end.State, end.Error)
	}
	want, _ := directSamples(t, url, spec, spec.Samples)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d under rate limit: %+v, direct %+v", i, got[i], want[i])
		}
	}
}

// TestHTTPErrorMapping sweeps the client-error surface.
func TestHTTPErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := ts.URL
	badSpecs := []string{
		`{bad json`,
		`{"backend": ""}`,
		`{"backend": "bogus:x"}`,
		`{"backend": "mem:barbell?n=20", "algorithm": "XXX"}`,
		`{"backend": "mem:barbell?n=20", "weight_mode": "nope"}`,
		`{"backend": "mem:barbell?n=20", "samples": -1}`,
	}
	for _, body := range badSpecs {
		if code, data := request(t, http.MethodPost, base+"/v1/jobs", body); code != http.StatusBadRequest {
			t.Fatalf("submit %s: %d (%s), want 400", body, code, data)
		}
	}
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/zzz"},
		{http.MethodGet, "/v1/jobs/zzz/stream"},
		{http.MethodGet, "/v1/jobs/zzz/checkpoint"},
		{http.MethodPost, "/v1/jobs/zzz/pause"},
		{http.MethodPost, "/v1/jobs/zzz/resume"},
		{http.MethodDelete, "/v1/jobs/zzz"},
	} {
		if code, _ := request(t, probe.method, base+probe.path, ""); code != http.StatusNotFound {
			t.Fatalf("%s %s: %d, want 404", probe.method, probe.path, code)
		}
	}

	// A completed job rejects the pause-family verbs with 409.
	id := submitJob(t, base, JobSpec{Backend: "mem:barbell?n=30", Samples: 40})
	waitState(t, base, id, StateDone)
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/jobs/" + id + "/pause"},
		{http.MethodPost, "/v1/jobs/" + id + "/resume"},
		{http.MethodGet, "/v1/jobs/" + id + "/checkpoint"},
		{http.MethodDelete, "/v1/jobs/" + id},
	} {
		if code, _ := request(t, probe.method, base+probe.path, ""); code != http.StatusConflict {
			t.Fatalf("%s %s on done job: %d, want 409", probe.method, probe.path, code)
		}
	}
	if code, _ := request(t, http.MethodGet, base+"/v1/jobs/"+id+"/stream?from=-1", ""); code != http.StatusBadRequest {
		t.Fatal("negative from accepted")
	}
	if code, _ := request(t, http.MethodGet, base+"/healthz", ""); code != http.StatusOK {
		t.Fatal("healthz not ok on an idle server")
	}
	// Replay of a finished job ends immediately with its state line.
	samples, end := readStream(t, base, id, 0, nil)
	if end.State != StateDone || len(samples) != 40 {
		t.Fatalf("replay: %d samples ending %q, want 40 ending done", len(samples), end.State)
	}
	// from= beyond the buffer yields just the state line.
	samples, end = readStream(t, base, id, 1000, nil)
	if len(samples) != 0 || end.State != StateDone {
		t.Fatalf("replay past end: %d samples ending %q", len(samples), end.State)
	}
}

// TestSubmitRejectsOutOfRangeUserCount: a job naming a provider whose /meta
// publishes a user count outside [0, MaxInt32] is refused with 502 Bad
// Gateway — the provider broke the protocol, not the client's spec — where
// it used to panic inside the POST /v1/jobs handler. No job is created.
func TestSubmitRejectsOutOfRangeUserCount(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, n := range []int64{-5, 1 << 62} {
		provider := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintf(w, `{"num_users":%d}`, n)
		}))
		body := fmt.Sprintf(`{"backend": %q, "samples": 10}`, provider.URL+"?retries=1")
		code, data := request(t, http.MethodPost, ts.URL+"/v1/jobs", body)
		provider.Close()
		if code != http.StatusBadGateway {
			t.Fatalf("num_users %d: submit answered %d (%s), want 502", n, code, data)
		}
	}
	if n := len(s.jobList()); n != 0 {
		t.Fatalf("%d jobs created for a misbehaving provider", n)
	}
}

// TestSubmitUnreachableProvider: a job naming a provider that refuses the
// connection is refused with 502 Bad Gateway, and a spec the server itself
// rejects is still a 400.
func TestSubmitUnreachableProvider(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	gone := httptest.NewServer(http.NotFoundHandler())
	url := gone.URL
	gone.Close()
	body := fmt.Sprintf(`{"backend": %q, "samples": 10}`, url+"?retries=1")
	if code, data := request(t, http.MethodPost, ts.URL+"/v1/jobs", body); code != http.StatusBadGateway {
		t.Fatalf("refused provider: submit answered %d (%s), want 502", code, data)
	}
	if code, data := request(t, http.MethodPost, ts.URL+"/v1/jobs", `{"backend": "mem:barbell?n=20", "samples": -1}`); code != http.StatusBadRequest {
		t.Fatalf("negative samples: submit answered %d (%s), want 400", code, data)
	}
	if n := len(s.jobList()); n != 0 {
		t.Fatalf("%d jobs created by refused submits", n)
	}
}

// TestOversizedBodiesRejected: both POST decoders read through a size cap
// and answer 413 when a body exceeds it, while normal bodies still decode.
func TestOversizedBodiesRejected(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	// Valid JSON up to the point the cap cuts it.
	huge := `{"backend": "` + strings.Repeat("x", maxBodyBytes) + `", "samples": 5}`
	if code, data := request(t, http.MethodPost, ts.URL+"/v1/jobs", huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized job spec: %d (%s), want 413", code, data)
	}
	if code, data := request(t, http.MethodPost, ts.URL+"/v1/tenants/t/budget", huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized budget request: %d (%s), want 413", code, data)
	}
	if n := len(s.jobList()); n != 0 {
		t.Fatalf("%d jobs created by rejected bodies", n)
	}
	if code, data := request(t, http.MethodPost, ts.URL+"/v1/tenants/t/budget", `{"backend": "mem:barbell?n=20", "budget": 5}`); code != http.StatusOK {
		t.Fatalf("budget request under the cap: %d (%s), want 200", code, data)
	}
	id := submitJob(t, ts.URL, JobSpec{Backend: "mem:barbell?n=20", Samples: 5})
	waitState(t, ts.URL, id, StateDone)
}

// TestDurableCacheWarmRestart: with Options.CacheDir, a restarted daemon
// reopens each backend's durable cache warm — the recovered ledger equals
// the pre-restart bill, and re-running the identical job bills nothing new
// while producing the identical samples.
func TestDurableCacheWarmRestart(t *testing.T) {
	const url = "mem:social?nodes=400&edges=1600&seed=17"
	cacheDir := t.TempDir()
	stateDir := t.TempDir()
	// SRW: trajectory depends only on demanded neighbor lists, so the warm
	// rerun is comparable sample-for-sample (MTO's Theorem 5 criterion
	// legitimately uses extra cache knowledge and may rewire differently).
	spec := JobSpec{Backend: url, Tenant: "crawler", Algorithm: "SRW", Samples: 1500, Seed: 4}

	s1 := New(context.Background(), Options{CacheDir: cacheDir})
	ts1 := httptest.NewServer(s1.Handler())
	id := submitJob(t, ts1.URL, spec)
	waitState(t, ts1.URL, id, StateDone)
	coldSamples, _ := readStream(t, ts1.URL, id, 0, nil)
	sb, err := s1.backend(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	bill := sb.provider.UniqueQueries()
	if bill == 0 {
		t.Fatal("cold job billed nothing")
	}
	if st, ok := sb.provider.DurableCacheStats(); !ok || st.Appends < bill {
		t.Fatalf("durable stats %+v ok=%v, want >= %d appends", st, ok, bill)
	}
	if err := s1.SaveState(stateDir); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": same cache dir, fresh server. The backend reopens warm.
	s2 := New(context.Background(), Options{CacheDir: cacheDir})
	if err := s2.LoadState(stateDir); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	sb2, err := s2.backend(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb2.provider.UniqueQueries(); got != bill {
		t.Fatalf("recovered ledger = %d, want %d", got, bill)
	}
	if st, ok := sb2.provider.DurableCacheStats(); !ok || st.Entries == 0 {
		t.Fatalf("reopened durable stats %+v ok=%v, want recovered entries", st, ok)
	}

	id2 := submitJob(t, ts2.URL, spec)
	waitState(t, ts2.URL, id2, StateDone)
	warmSamples, _ := readStream(t, ts2.URL, id2, 0, nil)
	if len(warmSamples) != len(coldSamples) {
		t.Fatalf("warm job drew %d samples, cold drew %d", len(warmSamples), len(coldSamples))
	}
	for i := range warmSamples {
		if warmSamples[i] != coldSamples[i] {
			t.Fatalf("warm sample %d = %+v, cold %+v", i, warmSamples[i], coldSamples[i])
		}
	}
	if got := sb2.provider.UniqueQueries(); got != bill {
		t.Fatalf("warm rerun billed %d new queries", got-bill)
	}
}

// TestBatchingBackendStats runs jobs through a daemon configured with demand
// coalescing over a real HTTP provider and checks the /v1/backends view
// reports the middleware's work: batches dispatched, the ids/batch
// histogram, and the driver's revalidation counter.
func TestBatchingBackendStats(t *testing.T) {
	g, err := rewire.SocialGraph(200, 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	provider := httptest.NewServer(httpsrc.Handler(g, httpsrc.ServerOptions{}))
	defer provider.Close()
	url := provider.URL + "?timeout=5s&backoff=1ms&max_backoff=10ms"

	_, ts := newTestServer(t, Options{BatchWait: time.Millisecond, BatchMax: 16})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := submitJob(t, ts.URL, JobSpec{
				Backend: url,
				Tenant:  fmt.Sprintf("tenant-%d", i),
				Samples: 150,
				Seed:    uint64(40 + i),
			})
			if _, ev := readStream(t, ts.URL, id, 0, nil); ev.State != StateDone {
				t.Errorf("job %s ended %q: %s", id, ev.State, ev.Error)
			}
		}(i)
	}
	wg.Wait()

	code, data := request(t, http.MethodGet, ts.URL+"/v1/backends", "")
	if code != http.StatusOK {
		t.Fatalf("backends: %d: %s", code, data)
	}
	var bl struct {
		Backends []BackendInfo `json:"backends"`
	}
	if err := json.Unmarshal(data, &bl); err != nil {
		t.Fatal(err)
	}
	if len(bl.Backends) != 1 {
		t.Fatalf("got %d backends, want 1", len(bl.Backends))
	}
	info := bl.Backends[0]
	if info.BatchesDispatched == nil || *info.BatchesDispatched == 0 {
		t.Fatalf("no batch stats in %+v — coalescing middleware not probed", info)
	}
	if info.CoalescedIDs == nil || *info.CoalescedIDs < *info.BatchesDispatched {
		t.Fatalf("coalesced ids %v < batches %d", info.CoalescedIDs, *info.BatchesDispatched)
	}
	var hist int64
	for _, n := range info.BatchSizeBuckets {
		hist += n
	}
	if hist != info.Fetches {
		t.Fatalf("histogram total %d != fetches %d", hist, info.Fetches)
	}
	if info.Revalidated == nil {
		t.Fatal("HTTP backend published no revalidation counter")
	}
	// The walkers' single-id demand was merged: dispatched round-trips must
	// number strictly fewer than the ids they carried for coalescing to have
	// done anything at all.
	if *info.CoalescedIDs <= *info.BatchesDispatched {
		t.Logf("note: no multi-id batches formed (ids=%d batches=%d)", *info.CoalescedIDs, *info.BatchesDispatched)
	}
}

// TestAppendWakesOnlyWatchedFollowers: appends with no follower keep the
// broadcast channel, and the next append after a follower takes it closes
// it, waking the follower, and installs a fresh one.
func TestAppendWakesOnlyWatchedFollowers(t *testing.T) {
	j := &job{wake: make(chan struct{})}
	unwatched := j.wake
	for i := 0; i < 3; i++ {
		j.appendSample(rewire.Sample{Node: rewire.NodeID(i)})
	}
	if j.wake != unwatched {
		t.Fatal("appends with no follower replaced the wake channel")
	}

	j.mu.Lock()
	wake, seen := j.watchLocked()
	j.mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("follower saw %d samples, want 3", len(seen))
	}
	woken := make(chan struct{})
	go func() {
		<-wake
		close(woken)
	}()
	j.appendSample(rewire.Sample{Node: 3})
	select {
	case <-woken:
	case <-time.After(5 * time.Second):
		t.Fatal("an append did not wake the follower blocked on the wake channel")
	}
	fresh := j.wake
	if fresh == wake {
		t.Fatal("the append closed the wake channel without replacing it")
	}
	j.appendSample(rewire.Sample{Node: 4})
	if j.wake != fresh {
		t.Fatal("an append after the swap, with no new follower, replaced the channel again")
	}
}
