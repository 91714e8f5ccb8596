// Package estimate turns walk samples into aggregate answers. It implements
// the paper's estimation pipeline (§IV-A): samples arrive from a walker's
// stationary distribution τ and are reweighted by importance sampling,
//
//	A(f) = Σ f(x_i) w(x_i) / Σ w(x_i),  w(x) ∝ target(x)/τ(x),
//
// so that AVG aggregates over all users (uniform target) come out unbiased.
// With the provider-published user count, COUNT and SUM aggregates follow.
package estimate

import (
	"errors"

	"rewire/internal/graph"
	"rewire/internal/osn"
)

// ImportanceSampler accumulates weighted samples. For the uniform target the
// weight of a sample x is 1/ω(x), where ω is the walker's StationaryWeight
// (degree for SRW, overlay degree for MTO, constant for MHRW/RJ).
type ImportanceSampler struct {
	sumFW float64
	sumW  float64
	n     int
}

// Add records one sample with aggregate value f and stationary weight omega
// (> 0; non-positive weights are rejected to protect the ratio estimator).
func (s *ImportanceSampler) Add(f, omega float64) error {
	if omega <= 0 {
		return errors.New("estimate: non-positive stationary weight")
	}
	w := 1 / omega
	s.sumFW += f * w
	s.sumW += w
	s.n++
	return nil
}

// N returns the number of samples recorded.
func (s *ImportanceSampler) N() int { return s.n }

// Estimate returns the current self-normalized estimate (0 before any
// sample).
func (s *ImportanceSampler) Estimate() float64 {
	if s.sumW == 0 {
		return 0
	}
	return s.sumFW / s.sumW
}

// Aggregate is a per-user quantity being averaged, e.g. degree or
// self-description length.
type Aggregate struct {
	// Name labels the aggregate in reports.
	Name string
	// Value extracts the quantity from a sampled user. deg is the user's
	// observed degree (free at sampling time); attrs carries the published
	// content, zero-valued when the dataset is topological only.
	Value func(v graph.NodeID, deg int, attrs Attrs) float64
}

// Attrs is the published content of a sampled user, as a query returns it.
type Attrs = osn.UserAttrs

// AvgDegree is the paper's default aggregate for topological datasets.
func AvgDegree() Aggregate {
	return Aggregate{
		Name:  "average degree",
		Value: func(_ graph.NodeID, deg int, _ Attrs) float64 { return float64(deg) },
	}
}

// CountPredicate builds a selection-condition aggregate: the *fraction* of
// users satisfying pred (multiply by the published user count for COUNT).
func CountPredicate(name string, pred func(v graph.NodeID, deg int, attrs Attrs) bool) Aggregate {
	return Aggregate{
		Name: name,
		Value: func(v graph.NodeID, deg int, a Attrs) float64 {
			if pred(v, deg, a) {
				return 1
			}
			return 0
		},
	}
}

// GroundTruthDegree returns the exact average degree of g.
func GroundTruthDegree(g *graph.Graph) float64 { return g.AverageDegree() }

// GroundTruth computes the exact uniform average of agg over all nodes of g,
// with attrs optionally supplying per-node content (nil for topological
// aggregates).
func GroundTruth(g *graph.Graph, agg Aggregate, attrs func(graph.NodeID) Attrs) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	total := 0.0
	for v := 0; v < n; v++ {
		var a Attrs
		if attrs != nil {
			a = attrs(graph.NodeID(v))
		}
		total += agg.Value(graph.NodeID(v), g.Degree(graph.NodeID(v)), a)
	}
	return total / float64(n)
}
