package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"rewire"
	"rewire/internal/estimate"
)

// State is a job's lifecycle position.
type State string

const (
	// StateRunning: a runner goroutine is streaming samples.
	StateRunning State = "running"
	// StatePaused: the job quiesced at a step boundary; its checkpoint is
	// stored and POST …/resume continues it byte-identically.
	StatePaused State = "paused"
	// StateDone: the full sample budget was delivered and the estimate
	// computed.
	StateDone State = "done"
	// StateCancelled: the job was cancelled (DELETE) and will not resume.
	StateCancelled State = "cancelled"
	// StateFailed: the run aborted on an error (see JobStatus.Error).
	StateFailed State = "failed"
)

// terminal reports whether a state is final — no runner exists and none will.
func terminal(st State) bool {
	return st == StateDone || st == StateCancelled || st == StateFailed
}

// Options tunes a Server.
type Options struct {
	// RateLimitRPS, when positive, wraps every opened backend with the SDK's
	// WithRateLimit middleware at this service-wide rate — the daemon's
	// politeness cap toward each provider, shared by all tenants (per-tenant
	// caps are budgets, not rates: queries, not queries-per-second, are what
	// providers bill).
	RateLimitRPS   float64
	RateLimitBurst int
	// MaxJobsPerTenant caps a tenant's simultaneously live (running or
	// paused) jobs; 0 = unlimited.
	MaxJobsPerTenant int
	// CacheDir, when set, gives every opened backend a durable write-ahead-
	// logged cache in a per-URL subdirectory: committed fetches persist
	// before they are served, and a restarted daemon reopens each backend
	// warm — replayed entries are cache hits, never re-billed, so resumed
	// checkpointed jobs continue their trajectories without re-paying for
	// topology any tenant already demanded.
	CacheDir string
	// BatchWait, when positive, wraps every opened backend with the SDK's
	// demand-coalescing middleware (rewire.WithBatching): misses from all
	// tenants' walkers that land within this window ride one provider
	// round-trip. It is the window's MaxWait: an upper bound, since the
	// dispatcher drains as soon as the callers its last completion released
	// are back, and holds for them at most a quarter of its recent round
	// trip. Coalescing sits OUTERMOST in the stack — above metrics and
	// the rate limit — so walker demand is merged before it is metered or
	// throttled, and each dispatched batch spends one rate-limit token. It
	// is the daemon's one coalescer: the http driver rejects URLs that try
	// to add another below the metrics.
	BatchWait time.Duration
	// BatchMax caps the ids per coalesced batch (0 = the SDK default).
	// Meaningful only with BatchWait.
	BatchMax int
}

// sharedBackend is the one-per-URL provider stack every job on that URL
// shares: metrics middleware, optional rate-limit middleware, optional
// demand-coalescing middleware outermost, then the Provider (cache +
// singleflight + global and per-tenant ledgers).
type sharedBackend struct {
	url      string
	provider *rewire.Provider
	metrics  *rewire.BackendMetrics
	// backend is the outermost middleware — the stack's capability probe
	// root for batch and transport stats (rewire.BackendAs walks it).
	backend rewire.Backend
}

// job is one submitted sampling job. samples is append-only — a delivered
// sample never changes — which is what lets the stream handler hand out
// stable slice views and lets ?from=N replay be exact.
type job struct {
	id   string
	spec JobSpec

	mu      sync.Mutex
	state   State
	samples []rewire.Sample
	// wake is closed and replaced on every state change, and on an append
	// when watched — a broadcast to stream followers. Always swapped under
	// mu, always closed AFTER mu is released.
	wake chan struct{}
	// watched records that a follower took wake since the last swap: an
	// append nobody waits on keeps the channel instead of allocating a new
	// one per sample.
	watched    bool
	sess       *rewire.Session // non-nil while a runner owns a live session
	cancel     context.CancelFunc
	runnerDone chan struct{} // closed when the runner exits; nil when none
	checkpoint []byte        // versioned envelope, stored on pause
	runErr     error         // why the job failed (StateFailed)
	estimate   float64       // avg-degree estimate, valid when estimateOK
	estimateOK bool
}

// swapWakeLocked replaces the broadcast channel and returns the old one for
// the caller to close once the lock is released.
func (j *job) swapWakeLocked() chan struct{} {
	old := j.wake
	j.wake = make(chan struct{})
	j.watched = false
	return old
}

// watchLocked returns the current broadcast channel for a follower to wait
// on, and the samples delivered so far as a stable read-only view
// (append-only buffer: existing entries never mutate).
func (j *job) watchLocked() (chan struct{}, []rewire.Sample) {
	j.watched = true
	return j.wake, j.samples[:len(j.samples):len(j.samples)]
}

// Server hosts the jobs, the shared per-URL backends, and the tenant budget
// table. Construct with New, mount Handler on an http.Server, and on
// shutdown call Drain then SaveState.
type Server struct {
	// ctx is the runners' root context: job runs outlive the HTTP requests
	// that start them, so they bind to the server's lifetime instead.
	ctx  context.Context
	stop context.CancelFunc
	opts Options

	mu       sync.Mutex
	backends map[string]*sharedBackend
	jobs     map[string]*job
	order    []string // job ids in submission order, for stable listings
	// budgets is the durable tenant → backend URL → unique-query cap table;
	// applied to a provider when the backend opens (and immediately when
	// already open), persisted by SaveState so caps survive restarts.
	budgets  map[string]map[string]int64
	nextID   int
	draining bool
}

// New builds an idle server. ctx bounds every job the server will ever run:
// cancelling it aborts all runners (Close does this for you).
func New(ctx context.Context, opts Options) *Server {
	ctx, stop := context.WithCancel(ctx)
	return &Server{
		ctx:      ctx,
		stop:     stop,
		opts:     opts,
		backends: make(map[string]*sharedBackend),
		jobs:     make(map[string]*job),
		budgets:  make(map[string]map[string]int64),
	}
}

// Close aborts every running job (as cancelled, not paused — use Drain first
// for a checkpointing shutdown) and releases the backends.
func (s *Server) Close() error {
	s.stop()
	s.mu.Lock()
	var doneChans []chan struct{}
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.runnerDone != nil {
			doneChans = append(doneChans, j.runnerDone)
		}
		j.mu.Unlock()
	}
	backends := make([]*sharedBackend, 0, len(s.backends))
	for _, sb := range s.backends {
		backends = append(backends, sb)
	}
	s.mu.Unlock()
	for _, ch := range doneChans {
		<-ch
	}
	var err error
	for _, sb := range backends {
		if cerr := sb.provider.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// backend returns (opening on first use) the shared provider stack for url.
// The driver's Open round-trips run OUTSIDE the server lock — an unreachable
// provider must not stall the whole API — so two racing first-openers may
// both construct; the loser's stack is closed and the winner's kept.
func (s *Server) backend(ctx context.Context, url string) (*sharedBackend, error) {
	s.mu.Lock()
	sb := s.backends[url]
	s.mu.Unlock()
	if sb != nil {
		return sb, nil
	}
	be, err := rewire.OpenBackend(ctx, url)
	if err != nil {
		return nil, err
	}
	metrics := &rewire.BackendMetrics{}
	wrapped := rewire.WithMetrics(be, metrics)
	if s.opts.RateLimitRPS > 0 {
		wrapped = rewire.WithRateLimit(wrapped, s.opts.RateLimitRPS, s.opts.RateLimitBurst)
	}
	if s.opts.BatchWait > 0 {
		wrapped = rewire.WithBatching(wrapped, rewire.BatchingOptions{
			MaxBatch: s.opts.BatchMax,
			MaxWait:  s.opts.BatchWait,
		})
	}
	fresh := &sharedBackend{url: url, provider: rewire.BackendSource(wrapped), metrics: metrics, backend: wrapped}
	s.mu.Lock()
	if won := s.backends[url]; won != nil {
		s.mu.Unlock()
		fresh.provider.Close()
		return won, nil
	}
	if s.opts.CacheDir != "" {
		// Attach under s.mu, before publication: the replay must land in a
		// still-fresh client, and serializing here guarantees exactly one
		// racing first-opener ever takes the directory's flock (the loser
		// closed its stack above without touching the cache). The cost is a
		// local-disk replay inside the lock, paid once per backend URL.
		if err := fresh.provider.AttachDurableCache(filepath.Join(s.opts.CacheDir, cacheSubdir(url))); err != nil {
			s.mu.Unlock()
			fresh.provider.Close()
			return nil, fmt.Errorf("serve: opening durable cache for %s: %w", url, err)
		}
	}
	s.backends[url] = fresh
	for tenant, perURL := range s.budgets {
		if n, ok := perURL[url]; ok {
			fresh.provider.SetTenantBudget(tenant, n)
		}
	}
	s.mu.Unlock()
	return fresh, nil
}

// cacheSubdir names the per-URL durable cache directory. URLs contain
// characters no filesystem path wants (slashes, query strings), so the name
// is a content hash: stable across restarts, collision-free in practice,
// and opaque on purpose — the manifest inside the directory is the state.
func cacheSubdir(url string) string {
	sum := sha256.Sum256([]byte(url))
	return "be-" + hex.EncodeToString(sum[:8])
}

// setTenantBudget records (durably) and applies the tenant's cap on url.
func (s *Server) setTenantBudget(tenant, url string, n int64) {
	s.mu.Lock()
	perURL := s.budgets[tenant]
	if perURL == nil {
		perURL = make(map[string]int64)
		s.budgets[tenant] = perURL
	}
	perURL[url] = n
	sb := s.backends[url]
	s.mu.Unlock()
	if sb != nil {
		sb.provider.SetTenantBudget(tenant, n)
	}
}

// liveJobs counts the tenant's non-terminal jobs. Callers hold s.mu.
func (s *Server) liveJobsLocked(tenant string) int {
	n := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.spec.Tenant == tenant && !terminal(j.state) {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Submit validates spec, opens (or joins) its backend, and starts the job's
// runner. It returns the job id immediately; samples arrive on the stream.
func (s *Server) Submit(ctx context.Context, spec JobSpec) (string, error) {
	if err := spec.normalize(); err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return "", errDraining
	}
	if max := s.opts.MaxJobsPerTenant; max > 0 && s.liveJobsLocked(spec.Tenant) >= max {
		s.mu.Unlock()
		return "", fmt.Errorf("%w: tenant %q already has %d live jobs", errTenantBusy, spec.Tenant, max)
	}
	s.mu.Unlock()

	sb, err := s.backend(ctx, spec.Backend)
	if err != nil {
		return "", err
	}
	if spec.Budget > 0 {
		s.setTenantBudget(spec.Tenant, spec.Backend, spec.Budget)
	}
	opts, err := spec.options()
	if err != nil {
		return "", err
	}
	sess, err := rewire.NewSession(sb.provider, opts...)
	if err != nil {
		return "", err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return "", errDraining
	}
	s.nextID++
	j := &job{
		id:    fmt.Sprintf("j%d", s.nextID),
		spec:  spec,
		state: StateRunning,
		wake:  make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	s.launch(j, sb, sess)
	return j.id, nil
}

// launch installs sess as j's live session and starts the runner goroutine.
func (s *Server) launch(j *job, sb *sharedBackend, sess *rewire.Session) {
	runCtx, cancel := context.WithCancel(rewire.WithTenant(s.ctx, j.spec.Tenant))
	done := make(chan struct{})
	j.mu.Lock()
	j.state = StateRunning
	j.sess = sess
	j.cancel = cancel
	j.runnerDone = done
	remaining := j.spec.Samples - len(j.samples)
	old := j.swapWakeLocked()
	j.mu.Unlock()
	close(old)
	go s.run(runCtx, j, sb, sess, done, remaining)
}

// run is the job's runner goroutine: it drains the session stream into the
// job's sample buffer, broadcasting each append, then settles the job into
// its next state — done (estimate computed), paused (checkpoint stored),
// cancelled, or failed.
func (s *Server) run(ctx context.Context, j *job, sb *sharedBackend, sess *rewire.Session, done chan struct{}, remaining int) {
	defer close(done)
	var runErr error
	for smp, err := range sess.Stream(ctx, remaining) {
		if err != nil {
			runErr = err
			break
		}
		j.appendSample(smp)
	}

	var (
		next       State
		checkpoint []byte
		est        float64
		estOK      bool
	)
	switch {
	case runErr == nil:
		next = StateDone
	case errors.Is(runErr, rewire.ErrPaused):
		j.mu.Lock()
		have := len(j.samples)
		j.mu.Unlock()
		if have >= j.spec.Samples {
			// The pause raced a clean completion: nothing left to resume.
			next = StateDone
			runErr = nil
			break
		}
		cp, err := sess.Checkpoint(ctx)
		if err != nil {
			next = StateFailed
			runErr = fmt.Errorf("serve: checkpointing paused job: %w", err)
			break
		}
		next = StatePaused
		checkpoint = cp
		runErr = nil
	case errors.Is(runErr, context.Canceled) && ctx.Err() != nil:
		next = StateCancelled
		runErr = nil
	default:
		next = StateFailed
	}
	if next == StateDone {
		est, estOK = estimateSamples(j.samplesView(), sb.provider)
	}

	j.mu.Lock()
	j.state = next
	j.checkpoint = checkpoint
	j.runErr = runErr
	j.estimate, j.estimateOK = est, estOK
	j.sess = nil
	j.cancel = nil
	j.runnerDone = nil
	old := j.swapWakeLocked()
	j.mu.Unlock()
	close(old)
}

// appendSample delivers one sample, waking the stream followers if any took
// the broadcast channel since the last swap.
func (j *job) appendSample(smp rewire.Sample) {
	j.mu.Lock()
	j.samples = append(j.samples, smp)
	var old chan struct{}
	if j.watched {
		old = j.swapWakeLocked()
	}
	j.mu.Unlock()
	if old != nil {
		close(old)
	}
}

// samplesView returns a stable read-only view of the samples delivered so
// far (append-only buffer: existing entries never mutate).
func (j *job) samplesView() []rewire.Sample {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.samples[:len(j.samples):len(j.samples)]
}

// estimateSamples computes the paper's self-normalized average-degree
// estimate from delivered samples, reading degrees through the provider's
// free CachedDegree accessor — every sampled node was demanded by the walk
// itself, so serving-layer estimation never perturbs any tenant's bill.
func estimateSamples(samples []rewire.Sample, prov *rewire.Provider) (float64, bool) {
	var is estimate.ImportanceSampler
	for _, smp := range samples {
		deg, ok := prov.CachedDegree(smp.Node)
		if !ok {
			continue
		}
		if err := is.Add(float64(deg), smp.Weight); err != nil {
			continue
		}
	}
	if is.N() == 0 {
		return 0, false
	}
	return is.Estimate(), true
}

// Pause asks the named job to quiesce at its next step boundary. The
// transition is asynchronous: the job reports StatePaused once its walkers
// retired and the checkpoint is stored (poll the status, or follow the
// stream — it ends with a "paused" event).
func (s *Server) Pause(id string) error {
	j := s.jobByID(id)
	if j == nil {
		return errNoSuchJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StatePaused:
		return nil // idempotent
	case j.state != StateRunning || j.sess == nil:
		return fmt.Errorf("%w: job %s is %s", errWrongState, id, j.state)
	}
	j.sess.Pause()
	return nil
}

// Resume continues a paused job from its stored checkpoint — the serving
// layer is the public checkpoint API's first consumer: the bytes go through
// rewire.Resume with the SHARED provider reattached via WithSource, so the
// resumed walk keeps every cache entry the fleet (its own and other
// tenants') already paid for, and its future trajectory is byte-identical
// to never having paused.
func (s *Server) Resume(ctx context.Context, id string) error {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return errDraining
	}
	j := s.jobByID(id)
	if j == nil {
		return errNoSuchJob
	}
	j.mu.Lock()
	if j.state != StatePaused {
		j.mu.Unlock()
		return fmt.Errorf("%w: job %s is %s", errWrongState, id, j.state)
	}
	if len(j.samples) >= j.spec.Samples {
		// Nothing left to draw: settle as done without a runner.
		j.state = StateDone
		j.checkpoint = nil
		old := j.swapWakeLocked()
		j.mu.Unlock()
		close(old)
		return nil
	}
	// Claim the transition (locking out concurrent Resumes) before the
	// backend round-trip and session rebuild happen outside the lock.
	j.state = StateRunning
	checkpoint := j.checkpoint
	spec := j.spec
	old := j.swapWakeLocked()
	j.mu.Unlock()
	close(old)

	revert := func(err error) error {
		j.mu.Lock()
		j.state = StatePaused
		o := j.swapWakeLocked()
		j.mu.Unlock()
		close(o)
		return err
	}
	sb, err := s.backend(ctx, spec.Backend)
	if err != nil {
		return revert(err)
	}
	sess, err := rewire.Resume(ctx, checkpoint, rewire.WithSource(sb.provider))
	if err != nil {
		return revert(fmt.Errorf("serve: resuming job %s: %w", id, err))
	}
	s.launch(j, sb, sess)
	return nil
}

// Cancel aborts the named job. Running jobs stop mid-stream (their context
// is cancelled); paused or pending ones settle immediately. Terminal jobs
// are left as they are (idempotent for already-cancelled ones).
func (s *Server) Cancel(id string) error {
	j := s.jobByID(id)
	if j == nil {
		return errNoSuchJob
	}
	j.mu.Lock()
	switch {
	case j.state == StateCancelled:
		j.mu.Unlock()
		return nil
	case terminal(j.state):
		st := j.state
		j.mu.Unlock()
		return fmt.Errorf("%w: job %s is %s", errWrongState, id, st)
	case j.cancel != nil: // running: the runner settles the state
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return nil
	default: // paused: settle in place
		j.state = StateCancelled
		j.checkpoint = nil
		old := j.swapWakeLocked()
		j.mu.Unlock()
		close(old)
		return nil
	}
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// jobList returns the jobs in submission order.
func (s *Server) jobList() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Drain is the graceful-shutdown half the SIGTERM handler calls: it stops
// accepting submissions and resumes, asks every running job to pause at its
// next step boundary, and waits (bounded by ctx) until every runner has
// checkpointed and exited. After a clean drain every non-terminal job is
// StatePaused with its checkpoint stored — SaveState then persists them.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()

	var doneChans []chan struct{}
	for _, j := range jobs {
		j.mu.Lock()
		if j.state == StateRunning && j.sess != nil {
			j.sess.Pause()
		}
		if j.runnerDone != nil {
			doneChans = append(doneChans, j.runnerDone)
		}
		j.mu.Unlock()
	}
	for _, ch := range doneChans {
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
		}
	}
	return nil
}

// TenantBills returns every tenant's bill on every opened backend:
// tenant → backend URL → bill. The per-URL maps are consistent snapshots of
// each provider's ledger.
func (s *Server) TenantBills() map[string]map[string]rewire.TenantBill {
	s.mu.Lock()
	backends := make([]*sharedBackend, 0, len(s.backends))
	for _, sb := range s.backends {
		backends = append(backends, sb)
	}
	s.mu.Unlock()
	out := make(map[string]map[string]rewire.TenantBill)
	for _, sb := range backends {
		for tenant, bill := range sb.provider.TenantBills() {
			perURL := out[tenant]
			if perURL == nil {
				perURL = make(map[string]rewire.TenantBill)
				out[tenant] = perURL
			}
			perURL[sb.url] = bill
		}
	}
	return out
}

// BackendURLs returns the opened backend URLs, sorted.
func (s *Server) BackendURLs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.backends))
	for url := range s.backends {
		out = append(out, url)
	}
	slices.Sort(out)
	return out
}
