// Command rewire-serve runs the multi-tenant sampling daemon: a long-lived
// HTTP/JSON service hosting concurrent sampling jobs over shared backends.
// Each backend URL gets exactly one provider stack (cache, singleflight,
// global + per-tenant ledgers, service-wide rate limit), so every tenant's
// walk warms every other tenant's cache while their bills stay exactly
// separable.
//
//	rewire-serve -addr :8080 -state /var/lib/rewire-serve -cache /var/lib/rewire-cache
//
// Submit jobs with POST /v1/jobs, follow them with GET /v1/jobs/{id}/stream
// (JSON lines), pause/resume with POST /v1/jobs/{id}/pause and .../resume.
// On SIGINT/SIGTERM the daemon drains: every running job is paused at a step
// boundary and checkpointed, state is saved to -state (when set), and the
// next start loads it — paused jobs resume byte-identically across the
// restart. With -cache, each backend additionally persists its demand-billed
// neighbor cache through a write-ahead log as it runs, so even a daemon that
// dies without draining (crash, SIGKILL, power loss) restarts with the
// cache and billing ledger recovered exactly: resumed jobs replay their
// trajectories warm instead of re-querying the provider.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rewire/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	stateDir := flag.String("state", "", "state directory for drain checkpoints (empty = no persistence)")
	rate := flag.Float64("rate", 0, "service-wide backend rate limit in requests/sec (0 = unlimited)")
	burst := flag.Int("burst", 1, "rate limiter burst size")
	maxJobs := flag.Int("max-jobs-per-tenant", 0, "max live jobs per tenant (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for jobs to checkpoint")
	cacheDir := flag.String("cache", "", "durable cache directory: per-backend write-ahead-logged caches that survive crashes and warm-start restarts (empty = in-memory only)")
	batchWait := flag.Duration("batchwait", 0, "demand-coalescing window: cache misses from all tenants arriving within it share one provider round-trip (0 = no coalescing)")
	batchMax := flag.Int("batch", 0, "max ids per coalesced round-trip (0 = SDK default; meaningful only with -batchwait)")
	flag.Parse()

	// The server gets its own root context, NOT the signal context: on
	// SIGTERM the jobs must PAUSE (checkpointing their walkers), not be
	// cancelled mid-step.
	srv := serve.New(context.Background(), serve.Options{
		RateLimitRPS:     *rate,
		RateLimitBurst:   *burst,
		MaxJobsPerTenant: *maxJobs,
		CacheDir:         *cacheDir,
		BatchWait:        *batchWait,
		BatchMax:         *batchMax,
	})
	if *stateDir != "" {
		if err := srv.LoadState(*stateDir); err != nil {
			log.Fatalf("loading state: %v", err)
		}
	}

	// Header and idle timeouts bound what a slow or idle client can hold
	// open. No read or write timeout: sample streams stay open for as long
	// as a job runs.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("rewire-serve listening on %s", *addr)

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("http server: %v", err)
	case <-sigCtx.Done():
	}
	log.Printf("shutting down: draining jobs (up to %s)", *drainTimeout)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	if *stateDir != "" {
		if err := srv.SaveState(*stateDir); err != nil {
			log.Printf("saving state: %v", err)
		} else {
			log.Printf("state saved to %s", *stateDir)
		}
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}
