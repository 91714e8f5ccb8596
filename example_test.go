package rewire_test

import (
	"context"
	"errors"
	"fmt"

	"rewire"
)

// ExampleNewSession shows the zero-to-sampling path: simulate a restrictive
// provider over the paper's barbell graph and drain a sample budget with an
// MTO session. The barbell has 22 nodes, so a full crawl costs 22 unique
// queries no matter how many samples are drawn — everything else is cache.
func ExampleNewSession() {
	g := rewire.Barbell(11)
	provider := rewire.Simulate(g, rewire.FacebookLimits())
	s, err := rewire.NewSession(provider,
		rewire.WithStarts(0),
		rewire.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}
	samples, err := s.Samples(context.Background(), 1000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d samples, %d unique queries\n", len(samples), provider.UniqueQueries())
	// Output:
	// 1000 samples, 22 unique queries
}

// ExampleSession_Stream ranges over the sample iterator and stops early —
// breaking out of the loop is all the cleanup a consumer owes.
func ExampleSession_Stream() {
	g := rewire.Barbell(5)
	s, err := rewire.NewSession(rewire.GraphSource(g),
		rewire.WithAlgorithm(rewire.AlgSRW),
		rewire.WithStarts(0),
		rewire.WithSeed(3),
	)
	if err != nil {
		panic(err)
	}
	n := 0
	for sample, err := range s.Stream(context.Background(), 100) {
		if err != nil {
			panic(err)
		}
		_ = sample
		n++
		if n == 10 {
			break
		}
	}
	fmt.Println("consumed", n, "of 100 budgeted samples")
	// Output:
	// consumed 10 of 100 budgeted samples
}

// ExampleSession_Samples_cancellation shows context plumbing end to end: a
// cancelled context aborts the run — including any in-flight provider
// round-trips — and the session reports the reason.
func ExampleSession_Samples_cancellation() {
	g := rewire.Barbell(8)
	s, err := rewire.NewSession(rewire.Simulate(g, rewire.FacebookLimits()))
	if err != nil {
		panic(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the run refuses immediately
	_, err = s.Samples(ctx, 1000)
	fmt.Println("aborted:", errors.Is(err, context.Canceled))

	// The session survives: a live context resumes where the walk stood.
	samples, err := s.Samples(context.Background(), 50)
	if err != nil {
		panic(err)
	}
	fmt.Println("resumed for", len(samples), "samples")
	// Output:
	// aborted: true
	// resumed for 50 samples
}

// ExampleSession_Estimate runs the paper's full protocol — Geweke-monitored
// burn-in, importance-weighted estimation — in one call.
func ExampleSession_Estimate() {
	g := rewire.Barbell(11)
	provider := rewire.Simulate(g, rewire.Limits{})
	s, err := rewire.NewSession(provider,
		rewire.WithStarts(0),
		rewire.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}
	res, err := s.Estimate(context.Background(), rewire.AvgDegree(), rewire.EstimateOptions{
		Samples:         2000,
		BurnIn:          true,
		GewekeThreshold: 0.2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("estimate %.2f (truth %.2f) from %d samples, converged: %v\n",
		res.Estimate, g.AverageDegree(), res.Samples, res.Converged)
	// Output:
	// estimate 10.08 (truth 10.09) from 2000 samples, converged: true
}

// ExampleSession_Rewired shows the on-the-fly rewiring doing its job: the
// walk's overlay ends denser in conductance than the graph it never
// modified.
func ExampleSession_Rewired() {
	g := rewire.Barbell(11)
	s, err := rewire.NewSession(rewire.GraphSource(g), rewire.WithStarts(0), rewire.WithSeed(1))
	if err != nil {
		panic(err)
	}
	if _, err := s.Samples(context.Background(), 5000); err != nil {
		panic(err)
	}
	removed, added := s.Rewired()
	overlay, err := s.MaterializeOverlay()
	if err != nil {
		panic(err)
	}
	phi, _ := rewire.Conductance(g)
	phiStar, _ := rewire.Conductance(overlay)
	fmt.Printf("%d removals, %d additions; conductance %.4f -> %.4f\n",
		removed, added, phi, phiStar)
	// Output:
	// 80 removals, 0 additions; conductance 0.0179 -> 0.0667
}
