package estimate

import (
	"errors"
	"math"
	"testing"

	"rewire/internal/diag"
	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

func TestImportanceSamplerUnweighted(t *testing.T) {
	var s ImportanceSampler
	for _, f := range []float64{1, 2, 3, 4} {
		if err := s.Add(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Estimate(); got != 2.5 {
		t.Errorf("Estimate = %v, want 2.5", got)
	}
	if s.N() != 4 {
		t.Errorf("N = %d", s.N())
	}
}

func TestImportanceSamplerWeighted(t *testing.T) {
	// Two items with stationary weights 1 and 3 (degree-proportional):
	// item values 10 and 30. Uniform-target estimate:
	// (10*1 + 30/3) / (1 + 1/3) = 20/(4/3) = 15 — not the naive 20.
	var s ImportanceSampler
	if err := s.Add(10, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(30, 3); err != nil {
		t.Fatal(err)
	}
	if got := s.Estimate(); math.Abs(got-15) > 1e-12 {
		t.Errorf("Estimate = %v, want 15", got)
	}
}

func TestImportanceSamplerRejectsBadWeight(t *testing.T) {
	var s ImportanceSampler
	if err := s.Add(1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := s.Add(1, -2); err == nil {
		t.Error("negative weight accepted")
	}
	if s.Estimate() != 0 {
		t.Error("empty sampler estimate not 0")
	}
}

func TestSRWDegreeEstimateUnbiased(t *testing.T) {
	// The canonical identity: SRW samples reweighted by 1/deg estimate the
	// true average degree. Star graph: truth = 2(n-1)/n.
	g := gen.Star(20)
	truth := GroundTruthDegree(g)
	w := walk.NewSimple(g, 0, rng.New(1))
	var est ImportanceSampler
	for i := 0; i < 200000; i++ {
		v := w.Step()
		deg := float64(g.Degree(v))
		if err := est.Add(deg, deg); err != nil {
			t.Fatal(err)
		}
	}
	if rel := math.Abs(est.Estimate()-truth) / truth; rel > 0.02 {
		t.Errorf("SRW estimate %v vs truth %v (rel %v)", est.Estimate(), truth, rel)
	}
}

func TestGroundTruth(t *testing.T) {
	g := gen.Path(4) // degrees 1,2,2,1
	if got := GroundTruth(g, AvgDegree(), nil); got != 1.5 {
		t.Errorf("avg degree = %v, want 1.5", got)
	}
	attrs := func(v graph.NodeID) Attrs { return Attrs{DescLen: int(v) * 10} }
	if got := GroundTruth(g, AvgDescLen(), attrs); got != 15 {
		t.Errorf("avg desc len = %v, want 15", got)
	}
	frac := GroundTruth(g, CountPredicate("deg2", func(_ graph.NodeID, deg int, _ Attrs) bool {
		return deg == 2
	}), nil)
	if frac != 0.5 {
		t.Errorf("predicate fraction = %v, want 0.5", frac)
	}
}

func TestTrajectoryCostToReach(t *testing.T) {
	tr := &Trajectory{}
	truth := 10.0
	// Errors: 0.5, 0.3, 0.15, 0.05, 0.02 at costs 10..50.
	for i, est := range []float64{15, 13, 11.5, 10.5, 10.2} {
		tr.Record(int64(10*(i+1)), est)
	}
	c, ok := tr.CostToReach(truth, 0.2)
	if !ok || c != 30 {
		t.Errorf("CostToReach(0.2) = %d,%v want 30,true", c, ok)
	}
	c, ok = tr.CostToReach(truth, 0.1)
	if !ok || c != 40 {
		t.Errorf("CostToReach(0.1) = %d,%v want 40,true", c, ok)
	}
	// Never settles below 0.01.
	if _, ok := tr.CostToReach(truth, 0.01); ok {
		t.Error("should not settle below 0.01")
	}
	// Below threshold from the start.
	c, ok = tr.CostToReach(truth, 0.9)
	if !ok || c != 10 {
		t.Errorf("CostToReach(0.9) = %d,%v want 10,true", c, ok)
	}
}

func TestTrajectoryCostToReachNonMonotone(t *testing.T) {
	// An estimate that dips below then bounces above the threshold: the
	// cost must reflect the *last* exceedance.
	tr := &Trajectory{}
	tr.Record(10, 12) // err .2
	tr.Record(20, 10) // err 0
	tr.Record(30, 13) // err .3 again
	tr.Record(40, 10.1)
	c, ok := tr.CostToReach(10, 0.15)
	if !ok || c != 40 {
		t.Errorf("CostToReach = %d,%v want 40,true", c, ok)
	}
}

func TestMeanCostToReach(t *testing.T) {
	mk := func(costs []int64, ests []float64) *Trajectory {
		tr := &Trajectory{}
		for i := range costs {
			tr.Record(costs[i], ests[i])
		}
		return tr
	}
	runs := []*Trajectory{
		mk([]int64{10, 20}, []float64{15, 10}), // settles at 20
		mk([]int64{10, 20}, []float64{10, 10}), // settles at 10
		mk([]int64{10, 20}, []float64{15, 15}), // never settles
	}
	mean, settled := MeanCostToReach(runs, 10, 0.2)
	if settled != 2 || mean != 15 {
		t.Errorf("MeanCostToReach = %v,%d want 15,2", mean, settled)
	}
	// At a tiny threshold, runs 1 and 2 still settle (both end exactly at
	// the truth); run 3 never does.
	if _, settled := MeanCostToReach(runs, 10, 0.001); settled != 2 {
		t.Errorf("settled = %d, want 2", settled)
	}
}

func TestTrajectoryEmpty(t *testing.T) {
	tr := &Trajectory{}
	if !math.IsNaN(tr.Final()) {
		t.Error("empty Final should be NaN")
	}
	if tr.FinalCost() != 0 {
		t.Error("empty FinalCost should be 0")
	}
	if _, ok := tr.CostToReach(1, 0.5); ok {
		t.Error("empty trajectory cannot settle")
	}
}

func TestRunSessionEndToEnd(t *testing.T) {
	g := gen.EpinionsLikeSmall(3)
	svc := osn.NewService(g, nil, osn.Config{})
	client := osn.NewClient(svc)
	w := walk.NewSimple(client, 0, rng.New(5))
	info := func(v graph.NodeID) (int, Attrs) { return client.Degree(v), Attrs{} }
	res := RunSession([]walk.Walker{w}, AvgDegree(), info, client.UniqueQueries, SessionConfig{
		BurnIn:  diag.NewGeweke(0.5, 200),
		Samples: 4000,
	})
	if !res.BurnInConverged {
		t.Error("burn-in did not converge")
	}
	if res.Samples != 4000 {
		t.Errorf("samples = %d", res.Samples)
	}
	truth := GroundTruthDegree(g)
	if rel := math.Abs(res.Estimate-truth) / truth; rel > 0.25 {
		t.Errorf("estimate %v vs truth %v (rel %v)", res.Estimate, truth, rel)
	}
	if res.FinalCost <= 0 || res.FinalCost != client.UniqueQueries() {
		t.Errorf("cost accounting broken: %d vs %d", res.FinalCost, client.UniqueQueries())
	}
	if len(res.Trajectory.Points) == 0 {
		t.Error("no trajectory recorded")
	}
}

func TestRunSessionWithoutCostMeter(t *testing.T) {
	g := gen.Barbell(5)
	w := walk.NewSimple(g, 0, rng.New(7))
	info := func(v graph.NodeID) (int, Attrs) { return g.Degree(v), Attrs{} }
	res := RunSession([]walk.Walker{w}, AvgDegree(), info, nil, SessionConfig{Samples: 100})
	// Cost falls back to step counting: 100 sampling steps, no burn-in.
	if res.FinalCost != 100 {
		t.Errorf("FinalCost = %d, want 100 steps", res.FinalCost)
	}
}

func TestRunSessionUniformWalker(t *testing.T) {
	g := gen.Lollipop(5, 3)
	// MHRW targets the uniform distribution: every sample weighs 1.
	mh := walk.NewMetropolisHastings(g, 0, rng.New(9))
	info := func(v graph.NodeID) (int, Attrs) { return g.Degree(v), Attrs{} }
	res := RunSession([]walk.Walker{mh}, AvgDegree(), info, nil, SessionConfig{Samples: 120000})
	truth := GroundTruthDegree(g)
	if rel := math.Abs(res.Estimate-truth) / truth; rel > 0.05 {
		t.Errorf("MHRW estimate %v vs truth %v (rel %v)", res.Estimate, truth, rel)
	}
}

func TestRunSessionBurnInCap(t *testing.T) {
	g := gen.Barbell(8)
	w := walk.NewSimple(g, 0, rng.New(11))
	info := func(v graph.NodeID) (int, Attrs) { return g.Degree(v), Attrs{} }
	res := RunSession([]walk.Walker{w}, AvgDegree(), info, nil, SessionConfig{
		BurnIn:         diag.NewGeweke(1e-9, 100), // unreachable threshold
		MaxBurnInSteps: 500,
		Samples:        10,
	})
	if res.BurnInConverged {
		t.Error("impossible threshold converged")
	}
	if res.BurnInSteps != 500 {
		t.Errorf("burn-in steps = %d, want cap 500", res.BurnInSteps)
	}
}

// member is a scripted walker that stays on its own node id and weighs
// every sample weight. It counts its steps and records every node its
// weight was read at; failAt > 0 makes the weight read of its failAt-th
// step fail (latching err, as a Bound does when a query fails). The
// embedded Walker is nil: the session never touches chain state.
type member struct {
	walk.Walker
	id      graph.NodeID
	weight  float64
	steps   int
	weighed []graph.NodeID
	failAt  int
	err     error
}

func (m *member) Current() graph.NodeID { return m.id }
func (m *member) Step() graph.NodeID    { m.steps++; return m.id }
func (m *member) Err() error            { return m.err }

func (m *member) StationaryWeight(v graph.NodeID) float64 {
	m.weighed = append(m.weighed, v)
	if m.steps == m.failAt {
		m.err = errors.New("weight read failed")
		return 0
	}
	return m.weight
}

// TestRunSessionRoundRobin pins the multi-member schedule: members step in
// turn from member 0 (per-member step counts differ by at most one), and
// each sample is weighed by the member that drew it — never by a neighbor
// in the rotation.
func TestRunSessionRoundRobin(t *testing.T) {
	members := []*member{{id: 0, weight: 1}, {id: 1, weight: 2}, {id: 2, weight: 4}}
	walkers := make([]walk.Walker, len(members))
	for i, m := range members {
		walkers[i] = m
	}
	// The aggregate is the node id itself; the monitor never converges, so
	// burn-in runs its 7-step cap.
	id := Aggregate{Value: func(v graph.NodeID, _ int, _ Attrs) float64 { return float64(v) }}
	info := func(graph.NodeID) (int, Attrs) { return 1, Attrs{} }
	res := RunSession(walkers, id, info, nil, SessionConfig{
		BurnIn:         diag.NewGeweke(1e-9, 100),
		MaxBurnInSteps: 7,
		Samples:        10,
		Thinning:       2,
	})
	if res.Samples != 10 || res.FinalCost != 27 {
		t.Fatalf("samples %d, steps %d; want 10 samples over 7+20 steps", res.Samples, res.FinalCost)
	}
	// 27 steps from member 0: 9 each.
	for i, m := range members {
		if m.steps != 9 {
			t.Errorf("member %d stepped %d times, want 9", i, m.steps)
		}
		for _, v := range m.weighed {
			if v != m.id {
				t.Errorf("member %d weighed member %d's sample", i, v)
			}
		}
	}
	// With Thinning 2 after 7 burn-in steps, samples are drawn by members
	// 2,1,0,2,1,0,2,1,0,2 (steps 9,11,...,27): 4, 3 and 3 samples.
	if n0, n1, n2 := len(members[0].weighed), len(members[1].weighed), len(members[2].weighed); n0 != 3 || n1 != 3 || n2 != 4 {
		t.Errorf("samples per member = %d,%d,%d, want 3,3,4", n0, n1, n2)
	}
	want := (0*3/1.0 + 1*3/2.0 + 2*4/4.0) / (3/1.0 + 3/2.0 + 4/4.0)
	if math.Abs(res.Estimate-want) > 1e-12 {
		t.Errorf("estimate = %v, want %v", res.Estimate, want)
	}

	// A second call restarts the rotation at member 0.
	RunSession(walkers, id, info, nil, SessionConfig{Samples: 4})
	if s0, s1, s2 := members[0].steps, members[1].steps, members[2].steps; s0 != 11 || s1 != 10 || s2 != 10 {
		t.Errorf("after a 4-sample rerun steps = %d,%d,%d, want 11,10,10", s0, s1, s2)
	}
}

func TestRunSessionTwoWalkersCoverBarbellFaster(t *testing.T) {
	// The point of many walks: members starting on both sides cover the
	// barbell far faster than a single walk that must cross the bridge.
	g := gen.Barbell(11)
	coverSteps := func(seed uint64, starts ...graph.NodeID) int64 {
		r := rng.New(seed)
		walkers := make([]walk.Walker, len(starts))
		for i, s := range starts {
			walkers[i] = walk.NewSimple(g, s, r.Split())
		}
		seen := make(map[graph.NodeID]bool)
		info := func(v graph.NodeID) (int, Attrs) { seen[v] = true; return g.Degree(v), Attrs{} }
		// Without a cost meter FinalCost counts steps; Stop ends the session
		// on the step after the one that covered the graph.
		return RunSession(walkers, AvgDegree(), info, nil, SessionConfig{
			Samples: 300000,
			Stop:    func() bool { return len(seen) == g.NumNodes() },
		}).FinalCost
	}
	var single, both int64
	for seed := uint64(1); seed <= 30; seed++ {
		single += coverSteps(seed, 0)
		both += coverSteps(seed, 0, 11)
	}
	if both >= single {
		t.Errorf("mean two-walker cover time %d not faster than single %d (30 seeds)", both/30, single/30)
	}
}

func TestRunSessionPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunSession(nil, AvgDegree(), nil, nil, SessionConfig{Samples: 1})
}

// TestRunSessionDropsFailedWeightRead pins that a sample whose weight read
// failed never reaches the estimate: the session ends without it.
func TestRunSessionDropsFailedWeightRead(t *testing.T) {
	m := &member{id: 3, weight: 2, failAt: 5}
	info := func(graph.NodeID) (int, Attrs) { return 1, Attrs{} }
	res := RunSession([]walk.Walker{m}, AvgDegree(), info, nil, SessionConfig{Samples: 10})
	if res.Samples != 4 {
		t.Errorf("samples = %d, want the 4 drawn before the failed weight read", res.Samples)
	}
}
