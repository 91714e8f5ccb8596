package durable

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"testing"

	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

// TestCrashChild is the fault-injection subprocess, driven by
// TestKillAndRecoverMidCrawl via re-exec: it crawls over a durable cache
// configured to SIGKILL itself after REWIRE_CRASH_AFTER appends, and never
// returns. Running it directly (no env) is a no-op skip.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv("REWIRE_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-injection child; driven by TestKillAndRecoverMidCrawl")
	}
	after, err := strconv.ParseInt(os.Getenv("REWIRE_CRASH_AFTER"), 10, 64)
	if err != nil {
		t.Fatalf("bad REWIRE_CRASH_AFTER: %v", err)
	}
	c, err := Open(dir, Options{SegmentBytes: 1 << 10, CompactSegments: 2, CrashAfterAppends: after})
	if err != nil {
		t.Fatalf("child Open: %v", err)
	}
	client := osn.NewClient(&mapBackend{n: 5000})
	if err := c.Attach(client); err != nil {
		t.Fatalf("child Attach: %v", err)
	}
	w := walk.NewSimple(client, 0, rng.New(42).Split())
	for i := 0; i < 1_000_000; i++ {
		w.Step()
	}
	t.Fatal("child survived its crawl without crashing")
}

// TestKillAndRecoverMidCrawl is the crash-injection harness: a subprocess
// crawls over a durable cache and SIGKILLs itself mid-append-stream at
// varied points (mid-segment, at rotation boundaries, during compaction
// churn). The parent then reopens the directory and asserts the recovery
// contract: no corruption, billing exactly equal to the recovered cache
// state, and — because the cache layer is transparent to trajectories — a
// fresh same-seed walk over the recovered cache replays the reference
// trajectory byte-for-byte while re-billing none of the recovered entries.
func TestKillAndRecoverMidCrawl(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash injection is not -short friendly")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("no test executable for re-exec")
	}

	// Reference trajectory and bill: same graph, same seed, no cache.
	const steps = 3000
	refClient := osn.NewClient(&mapBackend{n: 5000})
	refWalk := walk.NewSimple(refClient, 0, rng.New(42).Split())
	refPath := make([]graph.NodeID, steps)
	for i := range refPath {
		refPath[i] = refWalk.Step()
	}
	refUnique := refClient.UniqueQueries()

	// Crash points: early (first segment), around the 1 KiB rotation
	// threshold, and deep enough that compaction (CompactSegments: 2) has
	// started folding generations.
	for _, crashAfter := range []int64{1, 7, 40, 120, 600} {
		t.Run(fmt.Sprintf("after=%d", crashAfter), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(exe, "-test.run=TestCrashChild$", "-test.v")
			cmd.Env = append(os.Environ(),
				"REWIRE_CRASH_DIR="+dir,
				"REWIRE_CRASH_AFTER="+strconv.FormatInt(crashAfter, 10),
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

			// The killed process left its active segment preallocated: the
			// frames, then zeros. A copy of the directory gets a non-zero
			// partial frame planted after the frames, which must still read
			// as a torn tail.
			_, seg := activeSegment(t, dir)
			frames, err := replaySegment(seg, true, func(Record) error { return nil })
			if err != nil {
				t.Fatalf("replaying the active segment: %v", err)
			}
			if !allZero(seg[frames:]) {
				t.Fatalf("active segment has non-zero bytes after its %d bytes of frames", frames)
			}
			partial := encodeFrame(nil, Record{Type: recFetch, User: 4999, Billed: true, Neighbors: []graph.NodeID{1, 2, 3}})
			if runtime.GOOS == "linux" && int64(len(seg)) < frames+int64(len(partial)) {
				t.Fatalf("active segment is %d bytes, %d of frames: no preallocated region", len(seg), frames)
			}
			torn := t.TempDir()
			copyDir(t, dir, torn)
			tornPath, _ := activeSegment(t, torn)
			plantAt(t, tornPath, partial[:len(partial)/2], frames)

			// First reopen: recovery must succeed and be internally exact,
			// and the zeros after the frames are the end of the log, not a
			// torn tail.
			c, err := Open(dir, Options{SegmentBytes: 1 << 10, CompactSegments: -1})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			if st := c.Stats(); st.TornTail {
				t.Fatal("reopen after a clean kill reported a torn tail")
			}
			if c.size != frames {
				t.Fatalf("reopened active segment holds %d bytes of records, want its %d bytes of frames", c.size, frames)
			}
			be := &mapBackend{n: 5000}
			client := osn.NewClient(be)
			if err := c.Attach(client); err != nil {
				t.Fatalf("attach after crash: %v", err)
			}
			recovered := client.UniqueQueries()
			if recovered <= 0 {
				t.Fatalf("recovered nothing (unique = %d)", recovered)
			}
			if recovered > refUnique {
				t.Fatalf("recovered %d unique queries, reference crawl needs only %d", recovered, refUnique)
			}

			// Resume: the same-seed walk replays the reference trajectory
			// byte-identically, recovered entries are free, and the final
			// bill lands exactly on the reference — no loss of acknowledged
			// fetches, no double billing of replayed ones.
			w := walk.NewSimple(client, 0, rng.New(42).Split())
			for i := 0; i < steps; i++ {
				if got := w.Step(); got != refPath[i] {
					t.Fatalf("resumed trajectory diverged at step %d: %d != %d", i, got, refPath[i])
				}
			}
			if got := client.UniqueQueries(); got != refUnique {
				t.Fatalf("resumed bill = %d, want %d (recovered %d)", got, refUnique, recovered)
			}
			if int64(be.fetches) != refUnique-recovered {
				t.Fatalf("backend fetches = %d, want %d (every recovered entry must be a free hit)", be.fetches, refUnique-recovered)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("close recovered cache: %v", err)
			}
			if _, seg := activeSegment(t, dir); !sealedGrade(seg) {
				t.Fatalf("closed active segment (%d bytes) is not exactly its frames", len(seg))
			}

			// The planted partial frame is torn: truncated, reported, and
			// the ledger is the one the clean reopen recovered.
			ct, err := Open(torn, Options{SegmentBytes: 1 << 10, CompactSegments: -1})
			if err != nil {
				t.Fatalf("reopen with a planted partial frame: %v", err)
			}
			if !ct.Stats().TornTail {
				t.Fatal("a non-zero partial frame did not report a torn tail")
			}
			if ct.size != frames {
				t.Fatalf("torn reopen kept %d bytes of records, want %d", ct.size, frames)
			}
			clientT := osn.NewClient(&mapBackend{n: 5000})
			if err := ct.Attach(clientT); err != nil {
				t.Fatalf("attach with a planted partial frame: %v", err)
			}
			if got := clientT.UniqueQueries(); got != recovered {
				t.Fatalf("torn reopen recovered %d unique queries, want %d", got, recovered)
			}
			if err := ct.Close(); err != nil {
				t.Fatalf("close torn reopen: %v", err)
			}

			// Second reopen with no intervening writes: replay idempotence.
			c2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			client2 := osn.NewClient(&mapBackend{n: 5000})
			if err := c2.Attach(client2); err != nil {
				t.Fatalf("second attach: %v", err)
			}
			if got := client2.UniqueQueries(); got != refUnique {
				t.Fatalf("idempotent replay: unique = %d, want %d", got, refUnique)
			}
			if err := c2.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
		})
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// plantAt writes b into the file at path at byte off.
func plantAt(t *testing.T, path string, b []byte, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// sealedGrade reports whether seg is exactly a sequence of valid frames.
func sealedGrade(seg []byte) bool {
	_, err := replaySegment(seg, false, func(Record) error { return nil })
	return err == nil
}
