package exp

import (
	"slices"
	"testing"

	"rewire/internal/dataset"
)

// TestSteadyStateWalkZeroAlloc is the allocation gate for the walk inner
// loop: once the cache is warm, a step must not allocate — not 8 bytes, not
// one interface box. It repeats SteadyStateAllocs, the exact measurement the
// bench artifact gates (testing.AllocsPerRun rounds mallocs/runs down, so a
// handful of stray allocations per thousand steps would slip past it).
func TestSteadyStateWalkZeroAlloc(t *testing.T) { checkSteadyZeroAlloc(t, 1) }

// TestSteadyStateAllocsSeedIndependent re-measures at a different seed: the
// zero-allocation contract is a property of the code path, not of one lucky
// trajectory.
func TestSteadyStateAllocsSeedIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("duplicate measurement at a second seed")
	}
	checkSteadyZeroAlloc(t, 7)
}

// checkSteadyZeroAlloc asserts SteadyStateAllocs's rows at seed are 0. The
// MTO row is the best of several windows, which absorbs a stray allocation
// by a background goroutine; so that it cannot also absorb one the walk makes
// (an arena slab refill in one window), every window must read 0 whenever
// the race detector — under which such strays were seen — is off.
func checkSteadyZeroAlloc(t *testing.T, seed uint64) {
	srw, mto := steadyWalkers(dataset.Small()[0], seed)
	if a := minAllocsPerOp(3, allocMeasureRuns, func() { srw.Step() }); a != 0 {
		t.Errorf("seed %d: SRW steady-state step allocates %.4f times/op; want 0", seed, a)
	}
	windows := samplerAllocWindows(mto, allocWindows, allocMeasureRuns)
	if slices.Min(windows) != 0 || (!raceEnabled && slices.Max(windows) != 0) {
		t.Errorf("seed %d: MTO non-mutating step allocates %v times/op per window; want 0", seed, windows)
	}
}
