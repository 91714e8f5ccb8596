package estimate

import (
	"rewire/internal/diag"
	"rewire/internal/graph"
	"rewire/internal/walk"
)

// InfoFunc returns the degree and attributes of a sampled user. Built over
// an osn.Client it costs nothing extra: the walk already queried the node it
// stands on.
type InfoFunc func(v graph.NodeID) (deg int, attrs Attrs)

// burnInCheckEvery is how many burn-in steps pass between convergence
// checks.
const burnInCheckEvery = 25

// CostFunc returns the query budget spent so far (e.g. Client.UniqueQueries).
type CostFunc func() int64

// SessionConfig controls one sampling run.
type SessionConfig struct {
	// BurnIn is the convergence monitor deciding when sampling may start
	// (the paper uses Geweke on the degree trace). nil skips burn-in.
	BurnIn diag.Monitor
	// MaxBurnInSteps caps the burn-in phase (default 100000).
	MaxBurnInSteps int
	// Samples is the number of post-burn-in samples to draw: as in the
	// paper, every post-burn-in node is a sample.
	Samples int
	// Stop, when non-nil, is polled once per walk step; returning true ends
	// the session early (burn-in or sampling alike) with whatever has been
	// accumulated. This is how a context-bound caller threads cancellation
	// and budget exhaustion through the estimation loop without the loop
	// importing context.
	Stop func() bool
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.MaxBurnInSteps <= 0 {
		c.MaxBurnInSteps = 100000
	}
	return c
}

// MaxTrajectoryPoints bounds the trajectory RunSession records, whatever
// the number of samples: budget-bounded runs ask for math.MaxInt32 of them.
const MaxTrajectoryPoints = 256

// SessionResult reports one sampling run.
type SessionResult struct {
	// Trajectory holds at most MaxTrajectoryPoints (cost, estimate) points
	// across the sampling phase, evenly spaced in samples, ending with
	// (FinalCost, Estimate).
	Trajectory Trajectory
	// Estimate is the final importance-sampling estimate.
	Estimate float64
	// BurnInSteps is the number of steps spent before sampling.
	BurnInSteps int
	// BurnInConverged reports whether the monitor fired (false when the cap
	// was hit or no monitor was configured).
	BurnInConverged bool
	// Samples is the number of samples recorded.
	Samples int
	// FinalCost is the query budget consumed by the whole run.
	FinalCost int64
}

// RunSession executes the paper's sampling protocol over walkers: walk until
// the convergence monitor fires (burn-in), then record samples with
// importance weights, tracking the estimate as a function of spent query
// cost. The trajectory records a point every stride samples, starting at
// stride 1; when it holds MaxTrajectoryPoints points it keeps every other
// one and the stride doubles.
//
// The walkers step round-robin, one step each in turn, starting at member 0
// on every call, so every member contributes evenly and no schedule state
// outlives the call. A sample's weight is the StationaryWeight of the member
// that drew it. A member whose query path fails (a non-nil Err) during its
// step, or while the sample's info and weight are read, ends the session,
// and that sample is dropped. walkers must not be empty.
func RunSession(walkers []walk.Walker, agg Aggregate, info InfoFunc, cost CostFunc, cfg SessionConfig) SessionResult {
	if len(walkers) == 0 {
		panic("estimate: RunSession needs at least one walker")
	}
	cfg = cfg.withDefaults()
	// steps drives the round-robin and, without a cost meter, the cost.
	var steps int64
	var last walk.Walker // the member that drew the latest position
	step := func() graph.NodeID {
		last = walkers[steps%int64(len(walkers))]
		steps++
		return last.Step()
	}
	if cost == nil {
		cost = func() int64 { return steps }
	}
	var res SessionResult

	stopped := func() bool { return cfg.Stop != nil && cfg.Stop() }

	// Burn-in phase: observe the degree trace until convergence.
	if cfg.BurnIn != nil {
		for res.BurnInSteps < cfg.MaxBurnInSteps {
			if stopped() {
				break
			}
			v := step()
			if stopped() || last.Err() != nil {
				// The step's query path failed: v is stale and its degree
				// would read as garbage — keep it out of the convergence
				// trace (mirrors the sampling phase's post-step guard).
				break
			}
			res.BurnInSteps++
			deg, _ := info(v)
			cfg.BurnIn.Observe(float64(deg))
			if res.BurnInSteps%burnInCheckEvery == 0 && cfg.BurnIn.Converged() {
				res.BurnInConverged = true
				break
			}
		}
	}

	// Sampling phase.
	var est ImportanceSampler
	points := make([]TrajectoryPoint, 0, MaxTrajectoryPoints)
	stride, untilRecord := 1, 1
	for i := 0; i < cfg.Samples; i++ {
		if stopped() {
			break
		}
		v := step()
		if stopped() || last.Err() != nil {
			// The step's query path failed mid-walk (cancellation, budget):
			// v is a stale position whose info read would observe garbage
			// (e.g. degree 0) — drop it rather than poison the partial
			// estimate.
			break
		}
		deg, attrs := info(v)
		f := agg.Value(v, deg, attrs)
		omega := last.StationaryWeight(v)
		if last.Err() != nil {
			// The info or weight read queried the source (an uncached
			// degree, MTO's exact or sampled weight) and that query failed:
			// f and omega describe no real sample.
			break
		}
		if omega <= 0 {
			omega = 1 // degenerate weight: fall back rather than poison the ratio
		}
		if err := est.Add(f, omega); err != nil {
			continue
		}
		res.Samples++
		untilRecord--
		if untilRecord == 0 {
			points = append(points, TrajectoryPoint{Cost: cost(), Estimate: est.Estimate()})
			if len(points) == MaxTrajectoryPoints {
				// Point i was recorded at sample (i+1)·stride: the odd
				// indices are the points of the doubled stride.
				for j := 1; j < len(points); j += 2 {
					points[j/2] = points[j]
				}
				points = points[:len(points)/2]
				stride *= 2
			}
			untilRecord = stride
		}
	}
	res.Estimate = est.Estimate()
	res.FinalCost = cost()
	// Halving keeps the buffer below MaxTrajectoryPoints points, so the
	// final one still fits.
	if final := (TrajectoryPoint{Cost: res.FinalCost, Estimate: res.Estimate}); len(points) == 0 || points[len(points)-1] != final {
		points = append(points, final)
	}
	res.Trajectory = points
	return res
}
