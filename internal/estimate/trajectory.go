package estimate

import (
	"math"

	"rewire/internal/stats"
)

// TrajectoryPoint is one (query cost, running estimate) observation.
type TrajectoryPoint struct {
	Cost     int64
	Estimate float64
}

// Trajectory records how an estimate evolves with spent query budget — the
// raw material of the paper's Fig 7 and Fig 11 bias-vs-cost curves.
type Trajectory []TrajectoryPoint

// CostToReach returns the query cost after which the relative error against
// truth drops below threshold *and stays there* — the paper's Fig 7 y-axis
// ("the maximum query cost for a random walk to generate an estimation with
// relative error above a given value"). The second return is false when the
// trajectory never settles below the threshold.
func (t Trajectory) CostToReach(truth, threshold float64) (int64, bool) {
	if len(t) == 0 {
		return 0, false
	}
	// Find the last point whose error is >= threshold; the answer is the
	// cost of the next point.
	lastBad := -1
	for i, p := range t {
		if stats.RelativeError(p.Estimate, truth) >= threshold {
			lastBad = i
		}
	}
	switch {
	case lastBad == len(t)-1:
		return t[lastBad].Cost, false // never settled
	case lastBad < 0:
		return t[0].Cost, true // below threshold from the start
	default:
		return t[lastBad+1].Cost, true
	}
}

// MeanCostToReach averages CostToReach over many runs, counting only runs
// that settled; it returns the mean and how many settled.
func MeanCostToReach(runs []Trajectory, truth, threshold float64) (float64, int) {
	var sum float64
	settled := 0
	for _, tr := range runs {
		if c, ok := tr.CostToReach(truth, threshold); ok {
			sum += float64(c)
			settled++
		}
	}
	if settled == 0 {
		return math.NaN(), 0
	}
	return sum / float64(settled), settled
}
