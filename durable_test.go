package rewire

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"

	"rewire/internal/durable"
)

const crashGraphURL = "mem:social?nodes=400&edges=1600&seed=9"

func cacheURL(dir, src string) string {
	return "cache:" + dir + "?src=" + url.QueryEscape(src)
}

// TestCacheSchemeWarmStart drives the cache: driver end to end: a cold crawl
// through Open("cache:DIR?src=..."), a clean close, then a reopen that must
// recover the full ledger and bill nothing new for the identical crawl.
func TestCacheSchemeWarmStart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	p, err := Open(ctx, cacheURL(dir, crashGraphURL))
	if err != nil {
		t.Fatalf("Open cache: %v", err)
	}
	sess, err := NewSession(p, WithAlgorithm(AlgSRW), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	var cold []NodeID
	for v := range sess.Nodes(ctx, 2000) {
		cold = append(cold, v)
	}
	if err := sess.Err(); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	coldUnique := p.UniqueQueries()
	if coldUnique == 0 {
		t.Fatal("cold crawl billed nothing")
	}
	if st, ok := p.DurableCacheStats(); !ok || st.Appends < coldUnique {
		t.Fatalf("stats = %+v, ok=%v; want >= %d appends", st, ok, coldUnique)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	p2, err := Open(ctx, cacheURL(dir, crashGraphURL))
	if err != nil {
		t.Fatalf("reopen cache: %v", err)
	}
	defer p2.Close()
	if got := p2.UniqueQueries(); got != coldUnique {
		t.Fatalf("recovered ledger = %d, want %d", got, coldUnique)
	}
	st, ok := p2.DurableCacheStats()
	if !ok || st.Entries == 0 || st.Replayed == 0 {
		t.Fatalf("reopen stats = %+v, ok=%v; want recovered entries and replayed records", st, ok)
	}
	sess2, err := NewSession(p2, WithAlgorithm(AlgSRW), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for v := range sess2.Nodes(ctx, 2000) {
		if v != cold[i] {
			t.Fatalf("warm trajectory diverged at step %d: %d != %d", i, v, cold[i])
		}
		i++
	}
	if err := sess2.Err(); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if got := p2.UniqueQueries(); got != coldUnique {
		t.Fatalf("warm crawl billed %d new queries", got-coldUnique)
	}
}

// TestCacheSchemeErrors pins the driver's validation and the one-cache-per-
// provider rule.
func TestCacheSchemeErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := OpenBackend(ctx, "cache:?src=mem:barbell"); err == nil {
		t.Error("cache: without a directory accepted")
	}
	if _, err := OpenBackend(ctx, "cache:"+t.TempDir()); err == nil {
		t.Error("cache: without src= accepted")
	}
	if _, err := OpenBackend(ctx, cacheURL(t.TempDir(), "bogus:x")); err == nil {
		t.Error("cache: with an unknown inner scheme accepted")
	}

	p, err := Open(ctx, cacheURL(t.TempDir(), "mem:barbell?n=10"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.AttachDurableCache(t.TempDir()); err == nil {
		t.Error("second durable cache attached to one provider")
	}
	// The directory is flock'd by p: a second provider attaching it must fail.
	q := Simulate(Barbell(10), Limits{})
	defer q.Close()
	if err := q.AttachDurableCache(p.durable.Dir()); err == nil {
		t.Error("second open of a locked cache directory accepted")
	}
}

// chainOptions returns the session options for one named chain of the crash
// matrix. MTO runs with the Theorem 5 extended criterion OFF: that criterion
// consults the cache's degree knowledge, so it is the one chain feature that
// is deliberately cache-SENSITIVE — a warm-started walk knows more and may
// legitimately rewire differently. With it off, all four chains depend only
// on the neighbor lists their own steps demand, which is what makes the
// recovered-cache trajectory comparable to the cold reference byte for byte.
func chainOptions(chain string) []Option {
	switch chain {
	case "MTO":
		return []Option{WithAlgorithm(AlgMTO), WithExtendedCriterion(false)}
	case "SRW":
		return []Option{WithAlgorithm(AlgSRW)}
	case "MHRW":
		return []Option{WithAlgorithm(AlgMHRW)}
	case "RJ":
		return []Option{WithAlgorithm(AlgRJ)}
	default:
		panic("unknown chain " + chain)
	}
}

// TestSessionCrashChild is the fault-injection subprocess for
// TestSessionKillAndRecover: it crawls the configured chain over a durable
// cache set to SIGKILL the process after N journal appends. Running it
// directly (no env) is a no-op skip.
func TestSessionCrashChild(t *testing.T) {
	dir := os.Getenv("REWIRE_SDK_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-injection child; driven by TestSessionKillAndRecover")
	}
	after, err := strconv.ParseInt(os.Getenv("REWIRE_SDK_CRASH_AFTER"), 10, 64)
	if err != nil {
		t.Fatalf("bad REWIRE_SDK_CRASH_AFTER: %v", err)
	}
	chain := os.Getenv("REWIRE_SDK_CRASH_CHAIN")

	p, err := Open(context.Background(), crashGraphURL)
	if err != nil {
		t.Fatalf("child open backend: %v", err)
	}
	if err := p.attachDurable(dir, durable.Options{
		SegmentBytes:      1 << 10,
		CompactSegments:   2,
		CrashAfterAppends: after,
	}); err != nil {
		t.Fatalf("child attach: %v", err)
	}
	opts := append(chainOptions(chain), WithSeed(11), WithStarts(0))
	sess, err := NewSession(p, opts...)
	if err != nil {
		t.Fatalf("child session: %v", err)
	}
	for range sess.Nodes(context.Background(), 1<<30) {
	}
	t.Fatalf("child survived its crawl without crashing (err=%v)", sess.Err())
}

// TestSessionKillAndRecover is the SDK-level crash harness across all four
// chains: a subprocess crawls with a durable cache and SIGKILLs itself
// mid-journal at randomized depths (mid-segment, across rotation, during
// compaction churn). The parent reopens the directory through the public
// API and asserts the recovery contract — no corruption, ledger exactly the
// recovered prefix of the reference bill, and a same-seed session replaying
// the reference trajectory byte-identically while re-billing none of the
// recovered entries.
func TestSessionKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash injection is not -short friendly")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("no test executable for re-exec")
	}
	ctx := context.Background()
	const steps = 2500

	for _, chain := range []string{"MTO", "SRW", "MHRW", "RJ"} {
		// Reference: same chain, same seed, no cache.
		ref, err := Open(ctx, crashGraphURL)
		if err != nil {
			t.Fatal(err)
		}
		opts := append(chainOptions(chain), WithSeed(11), WithStarts(0))
		refSess, err := NewSession(ref, opts...)
		if err != nil {
			t.Fatal(err)
		}
		refSamples, err := refSess.Samples(ctx, steps)
		if err != nil || len(refSamples) != steps {
			t.Fatalf("%s reference run: %d samples, err %v", chain, len(refSamples), err)
		}
		refUnique := ref.UniqueQueries()

		// Crash points are chosen inside the reference bill: the child's
		// trajectory equals the reference's (same seed, cache-transparent
		// chains), so killing it before the refUnique-th journaled fetch
		// guarantees the recovered ledger is a strict prefix of the
		// reference's demand set. Early (first segment), mid (rotation at
		// 1 KiB segments), and late (compaction churn at CompactSegments=2).
		for _, crashAfter := range []int64{5, refUnique / 3, refUnique - 10} {
			t.Run(fmt.Sprintf("%s/after=%d", chain, crashAfter), func(t *testing.T) {
				dir := t.TempDir()
				cmd := exec.Command(exe, "-test.run=TestSessionCrashChild$")
				cmd.Env = append(os.Environ(),
					"REWIRE_SDK_CRASH_DIR="+dir,
					"REWIRE_SDK_CRASH_AFTER="+strconv.FormatInt(crashAfter, 10),
					"REWIRE_SDK_CRASH_CHAIN="+chain,
				)
				out, err := cmd.CombinedOutput()
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("child did not die by signal: err=%v\n%s", err, out)
				}
				ws, ok := ee.Sys().(syscall.WaitStatus)
				if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
					t.Fatalf("child exit = %v, want SIGKILL\n%s", err, out)
				}

				p, err := Open(ctx, cacheURL(dir, crashGraphURL))
				if err != nil {
					t.Fatalf("reopen after crash: %v", err)
				}
				defer p.Close()
				recovered := p.UniqueQueries()
				if recovered <= 0 || recovered > refUnique {
					t.Fatalf("recovered ledger = %d, want (0, %d]", recovered, refUnique)
				}

				sess, err := NewSession(p, append(chainOptions(chain), WithSeed(11), WithStarts(0))...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sess.Samples(ctx, steps)
				if err != nil || len(got) != steps {
					t.Fatalf("resumed run: %d samples, err %v", len(got), err)
				}
				for i := range got {
					if got[i].Node != refSamples[i].Node || got[i].Weight != refSamples[i].Weight {
						t.Fatalf("resumed trajectory diverged at step %d: %+v != %+v", i, got[i], refSamples[i])
					}
				}
				if final := p.UniqueQueries(); final != refUnique {
					t.Fatalf("resumed bill = %d, want %d (recovered %d)", final, refUnique, recovered)
				}
			})
		}
	}
}
