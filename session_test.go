package rewire_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"rewire"
	"rewire/internal/estimate"
)

func TestSessionStreamDrainsBudget(t *testing.T) {
	g := rewire.Barbell(11)
	s, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithFleet(4), rewire.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for smp, err := range s.Stream(context.Background(), 500) {
		if err != nil {
			t.Fatalf("unexpected stream error: %v", err)
		}
		if smp.Node < 0 || int(smp.Node) >= g.NumNodes() {
			t.Fatalf("sample node %d out of range", smp.Node)
		}
		if smp.Walker < 0 || smp.Walker >= 4 {
			t.Fatalf("sample walker %d out of range", smp.Walker)
		}
		n++
	}
	if n != 500 {
		t.Fatalf("drained %d samples, want 500", n)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("clean drain left Err = %v", err)
	}
	if removed, _ := s.Rewired(); removed == 0 {
		t.Fatal("MTO session performed no removals on the barbell")
	}
}

func TestSessionNodesIteratorAndReuse(t *testing.T) {
	g := rewire.Barbell(8)
	s, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithAlgorithm(rewire.AlgSRW))
	if err != nil {
		t.Fatal(err)
	}
	for range 3 { // sessions serialize runs and stay reusable
		n := 0
		for v := range s.Nodes(context.Background(), 100) {
			_ = v
			n++
			if n == 50 {
				break // breaking mid-iteration must clean up walker goroutines
			}
		}
		if s.Err() != nil {
			t.Fatalf("Err after clean break: %v", s.Err())
		}
	}
}

func TestSessionRejectsNegativeTotal(t *testing.T) {
	s, err := rewire.NewSession(rewire.GraphSource(rewire.Barbell(8)), rewire.WithFleet(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if got, err := s.Samples(ctx, -1); err == nil || len(got) != 0 {
		t.Errorf("Samples(-1) = %d samples, err %v; want none and an error", len(got), err)
	}
	pairs := 0
	for smp, err := range s.Stream(ctx, -1) {
		pairs++
		if err == nil || smp != (rewire.Sample{}) {
			t.Errorf("Stream(-1) yielded (%+v, %v), want the zero Sample and an error", smp, err)
		}
	}
	if pairs != 1 {
		t.Errorf("Stream(-1) yielded %d pairs, want 1", pairs)
	}
	for v := range s.Nodes(ctx, -1) {
		t.Errorf("Nodes(-1) yielded node %d", v)
	}
	// The rejection never claimed the run: the session is still usable.
	if got, err := s.Samples(ctx, 10); err != nil || len(got) != 10 {
		t.Errorf("Samples(10) after rejections = %d samples, err %v", len(got), err)
	}
}

func TestSessionErrRecordsDeadOnArrivalContext(t *testing.T) {
	g := rewire.Barbell(5)
	s, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithAlgorithm(rewire.AlgSRW))
	if err != nil {
		t.Fatal(err)
	}
	// A clean run first, so a stale nil cannot mask the next run's abort.
	if _, err := s.Samples(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	for range s.Nodes(ctx, 10) {
		n++
	}
	if n != 0 {
		t.Fatalf("dead context yielded %d nodes", n)
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("Err() = %v after dead-on-arrival run, want context.Canceled", s.Err())
	}
}

func TestSessionPartitionedReproducible(t *testing.T) {
	// SRW over a read-only source: with the budget partitioned, each
	// member's trajectory depends only on its own RNG stream. (MTO fleet
	// members share a mutating overlay, so their trajectories legitimately
	// depend on goroutine interleaving even when partitioned.)
	run := func() [][]rewire.NodeID {
		g := rewire.Barbell(9)
		s, err := rewire.NewSession(rewire.GraphSource(g),
			rewire.WithAlgorithm(rewire.AlgSRW),
			rewire.WithFleet(2), rewire.WithSeed(7), rewire.WithPartitionedBudget(true))
		if err != nil {
			t.Fatal(err)
		}
		per := make([][]rewire.NodeID, 2)
		for smp, err := range s.Stream(context.Background(), 400) {
			if err != nil {
				t.Fatal(err)
			}
			per[smp.Walker] = append(per[smp.Walker], smp.Node)
		}
		return per
	}
	a, b := run(), run()
	for w := range a {
		if len(a[w]) != len(b[w]) {
			t.Fatalf("walker %d: %d vs %d samples", w, len(a[w]), len(b[w]))
		}
		for i := range a[w] {
			if a[w][i] != b[w][i] {
				t.Fatalf("walker %d diverges at step %d: %d vs %d", w, i, a[w][i], b[w][i])
			}
		}
	}
}

func TestSessionEstimateOverProvider(t *testing.T) {
	g, err := rewire.SocialGraph(600, 2400, 11)
	if err != nil {
		t.Fatal(err)
	}
	truth := g.AverageDegree()
	for _, alg := range []rewire.Algorithm{rewire.AlgMTO, rewire.AlgSRW} {
		osn := rewire.Simulate(g, rewire.Limits{})
		s, err := rewire.NewSession(osn, rewire.WithAlgorithm(alg), rewire.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Estimate(context.Background(), rewire.AvgDegree(),
			rewire.EstimateOptions{Samples: 4000, BurnIn: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Samples != 4000 {
			t.Fatalf("%v: recorded %d samples, want 4000", alg, res.Samples)
		}
		if rel := math.Abs(res.Estimate-truth) / truth; rel > 0.35 {
			t.Fatalf("%v: estimate %.3f vs truth %.3f (rel err %.3f)", alg, res.Estimate, truth, rel)
		}
		if res.UniqueQueries <= 0 || res.UniqueQueries != osn.UniqueQueries() {
			t.Fatalf("%v: result cost %d, provider ledger %d", alg, res.UniqueQueries, osn.UniqueQueries())
		}
	}
}

// TestEstimateTrajectory: however long the run, a Result's trajectory keeps
// at most estimate.MaxTrajectoryPoints points, its costs never fall, and it
// ends at (UniqueQueries, Estimate). Recording it leaves the estimate's bits
// equal to the importance-weighted mean of the same seed's samples drawn by
// Stream.
func TestEstimateTrajectory(t *testing.T) {
	ctx := context.Background()
	g, err := rewire.SocialGraph(600, 2400, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		src     func() rewire.Source
		alg     rewire.Algorithm
		samples int
	}{
		{"graph/SRW", func() rewire.Source { return rewire.GraphSource(g) }, rewire.AlgSRW, 100_000},
		{"graph/MTO", func() rewire.Source { return rewire.GraphSource(g) }, rewire.AlgMTO, 100_000},
		{"provider/MTO", func() rewire.Source { return rewire.Simulate(g, rewire.Limits{}) }, rewire.AlgMTO, 20_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newSession := func() *rewire.Session {
				s, err := rewire.NewSession(tc.src(), rewire.WithAlgorithm(tc.alg), rewire.WithSeed(7))
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			r, err := newSession().Estimate(ctx, rewire.AvgDegree(), rewire.EstimateOptions{Samples: tc.samples})
			if err != nil {
				t.Fatal(err)
			}
			tr := r.Trajectory
			if len(tr) == 0 || len(tr) > estimate.MaxTrajectoryPoints {
				t.Fatalf("%d points, want 1..%d", len(tr), estimate.MaxTrajectoryPoints)
			}
			if last := tr[len(tr)-1]; last != (rewire.TrajectoryPoint{Cost: r.UniqueQueries, Estimate: r.Estimate}) {
				t.Fatalf("last point %+v, want (%d, %v)", last, r.UniqueQueries, r.Estimate)
			}
			for i := 1; i < len(tr); i++ {
				if tr[i].Cost < tr[i-1].Cost {
					t.Fatalf("cost falls from %d to %d at point %d", tr[i-1].Cost, tr[i].Cost, i)
				}
			}
			var want estimate.ImportanceSampler
			for smp, err := range newSession().Stream(ctx, tc.samples) {
				if err != nil {
					t.Fatal(err)
				}
				if err := want.Add(float64(g.Degree(smp.Node)), smp.Weight); err != nil {
					t.Fatal(err)
				}
			}
			if math.Float64bits(r.Estimate) != math.Float64bits(want.Estimate()) {
				t.Fatalf("Estimate %v, Stream's samples weigh to %v", r.Estimate, want.Estimate())
			}
		})
	}
}

func TestSessionValidation(t *testing.T) {
	g := rewire.Barbell(5)
	src := rewire.GraphSource(g)
	if _, err := rewire.NewSession(src, rewire.WithFleet(0)); err == nil {
		t.Fatal("WithFleet(0) accepted")
	}
	if _, err := rewire.NewSession(src, rewire.WithFleet(3), rewire.WithStarts(1)); err == nil {
		t.Fatal("fleet/starts mismatch accepted")
	}
	if _, err := rewire.NewSession(src, rewire.WithAlgorithm(rewire.Algorithm(99))); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := rewire.NewSession(src, rewire.WithStarts(1000)); !errors.Is(err, rewire.ErrNoSuchUser) {
		t.Fatalf("out-of-range start: got %v, want ErrNoSuchUser", err)
	}
	if _, err := rewire.NewSession(src, rewire.WithJumpProbability(1.5)); err == nil {
		t.Fatal("jump probability 1.5 accepted")
	}
}

func TestSessionDisconnectedStart(t *testing.T) {
	g, err := rewire.NewGraph(3, [][2]rewire.NodeID{{0, 1}}) // node 2 is isolated
	if err != nil {
		t.Fatal(err)
	}
	s, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithStarts(2))
	if err != nil {
		t.Fatal(err) // construction is query-free; the first run reports it
	}
	_, err = s.Samples(context.Background(), 10)
	if !errors.Is(err, rewire.ErrDisconnected) {
		t.Fatalf("got %v, want ErrDisconnected", err)
	}
}

func TestSessionSerializesRuns(t *testing.T) {
	g := rewire.Barbell(6)
	s, err := rewire.NewSession(rewire.GraphSource(g))
	if err != nil {
		t.Fatal(err)
	}
	for smp, err := range s.Stream(context.Background(), 5) {
		_ = smp
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Samples(context.Background(), 1); !errors.Is(err, rewire.ErrActiveStream) {
			t.Fatalf("nested run: got %v, want ErrActiveStream", err)
		}
		break
	}
	// After the (broken) stream the session is free again.
	if _, err := s.Samples(context.Background(), 5); err != nil {
		t.Fatalf("session not reusable after break: %v", err)
	}
}

func TestSessionBudgetExhaustionIsResumable(t *testing.T) {
	g, err := rewire.SocialGraph(400, 1600, 9)
	if err != nil {
		t.Fatal(err)
	}
	osn := rewire.Simulate(g, rewire.Limits{})
	osn.SetBudget(40)
	s, err := rewire.NewSession(osn, rewire.WithFleet(2), rewire.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Samples(context.Background(), 100000)
	if !errors.Is(err, rewire.ErrBudgetExhausted) {
		t.Fatalf("got %v, want ErrBudgetExhausted", err)
	}
	if osn.UniqueQueries() > 40 {
		t.Fatalf("billed %d unique queries past the budget of 40", osn.UniqueQueries())
	}
	// Raise the budget and resume: walkers continue from their positions.
	osn.SetBudget(0)
	more, err := s.Samples(context.Background(), 200)
	if err != nil {
		t.Fatalf("resume after budget raise: %v", err)
	}
	if len(got)+len(more) == 0 {
		t.Fatal("no samples drawn across exhaustion and resume")
	}
}

func TestMaterializeOverlayAndConductance(t *testing.T) {
	g := rewire.Barbell(11)
	phi, err := rewire.Conductance(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Samples(context.Background(), 3000); err != nil {
		t.Fatal(err)
	}
	ov, err := s.MaterializeOverlay()
	if err != nil {
		t.Fatal(err)
	}
	phiStar, err := rewire.Conductance(ov)
	if err != nil {
		t.Fatal(err)
	}
	if phiStar < phi {
		t.Fatalf("overlay conductance %.4f below original %.4f", phiStar, phi)
	}
	// Non-MTO sessions have no overlay.
	srw, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithAlgorithm(rewire.AlgSRW))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srw.MaterializeOverlay(); !errors.Is(err, rewire.ErrNoOverlay) {
		t.Fatalf("got %v, want ErrNoOverlay", err)
	}
}
