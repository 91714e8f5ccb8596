package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child must not replay the parent's stream.
	p := New(7)
	p.Uint64() // Split consumed one parent value
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("child stream matches parent stream at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 10, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expect := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bucket %d: count %d too far from %v", i, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
		sum += x
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Errorf("exp mean %v, want ~1", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(17)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / draws; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		p := New(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleUniformFirstElement(t *testing.T) {
	r := New(23)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		p := r.Perm(n)
		counts[p[0]]++
	}
	expect := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("first element %d appeared %d times, want ~%v", i, c, expect)
		}
	}
}

func TestChoice(t *testing.T) {
	r := New(29)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Choice(r, xs)] = true
	}
	if len(seen) != 3 {
		t.Errorf("Choice never returned some elements: %v", seen)
	}
}

func TestChoicePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice on empty slice did not panic")
		}
	}()
	Choice(New(1), []int{})
}

func TestWeightedChoice(t *testing.T) {
	r := New(31)
	weights := []float64{1, 0, 3, -2, 6}
	counts := make([]int, len(weights))
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[WeightedChoice(r, weights)]++
	}
	if counts[1] != 0 || counts[3] != 0 {
		t.Errorf("zero/negative weights drawn: %v", counts)
	}
	// Expected proportions 1:3:6 of total 10.
	for i, want := range map[int]float64{0: 0.1, 2: 0.3, 4: 0.6} {
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d rate %v, want %v", i, got, want)
		}
	}
}

func TestWeightedChoicePanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WeightedChoice(New(1), []float64{0, -1})
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(37)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 3}, {10, 10}, {1000, 5}, {100, 90}} {
		s := SampleWithoutReplacement(r, tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("n=%d k=%d: got %d elements", tc.n, tc.k, len(s))
		}
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Fatalf("n=%d k=%d: not strictly ascending: %v", tc.n, tc.k, s)
			}
		}
		for _, v := range s {
			if v < 0 || v >= tc.n {
				t.Fatalf("n=%d k=%d: out of range value %d", tc.n, tc.k, v)
			}
		}
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	r := New(41)
	const n, k, draws = 6, 2, 60000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		for _, v := range SampleWithoutReplacement(r, n, k) {
			counts[v]++
		}
	}
	expect := float64(draws*k) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("element %d chosen %d times, want ~%v", i, c, expect)
		}
	}
}

func TestZipf(t *testing.T) {
	r := New(43)
	z := NewZipf(100, 1.5)
	const draws = 100000
	counts := make([]int, 100)
	for i := 0; i < draws; i++ {
		v := z.Draw(r)
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[4] {
		t.Errorf("Zipf counts not decreasing: %v", counts[:8])
	}
	// P(0)/P(1) should be about 2^1.5.
	ratio := float64(counts[0]) / float64(counts[1])
	if math.Abs(ratio-math.Pow(2, 1.5)) > 0.4 {
		t.Errorf("Zipf head ratio %v, want ~%v", ratio, math.Pow(2, 1.5))
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(47)
	const draws = 100001
	xs := make([]float64, draws)
	for i := range xs {
		xs[i] = r.LogNormal(2, 0.5)
	}
	// Median of lognormal(mu, sigma) is e^mu.
	less := 0
	for _, x := range xs {
		if x < math.Exp(2) {
			less++
		}
	}
	if frac := float64(less) / draws; math.Abs(frac-0.5) > 0.01 {
		t.Errorf("lognormal median fraction %v, want ~0.5", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000003)
	}
}

// limbMul64 is the 32-bit-limb product Intn used before it switched to
// bits.Mul64; it pins that the switch left every bounded draw unchanged.
func limbMul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

func TestMul64MatchesLimbProduct(t *testing.T) {
	edges := []uint64{0, 1, 2, 3, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	check := func(x, y uint64) {
		hi, lo := bits.Mul64(x, y)
		wantHi, wantLo := limbMul64(x, y)
		if hi != wantHi || lo != wantLo {
			t.Fatalf("Mul64(%#x, %#x) = (%#x, %#x), limb product (%#x, %#x)", x, y, hi, lo, wantHi, wantLo)
		}
	}
	for _, x := range edges {
		for _, y := range edges {
			check(x, y)
		}
	}
	r := New(11)
	for i := 0; i < 1_000_000; i++ {
		check(r.Uint64(), r.Uint64())
	}
	// Intn draws on bits.Mul64 exactly as a limb-product Intn would.
	a, b := New(12), New(12)
	for i := 0; i < 100_000; i++ {
		n := 3 + i%70999
		if n&(n-1) == 0 {
			continue // powers of two take Intn's mask path, no product
		}
		if got, want := a.Intn(n), limbIntn(b, n); got != want {
			t.Fatalf("draw %d: Intn(%d) = %d, limb-product Intn %d", i, n, got, want)
		}
	}
}

// limbIntn is Intn's non-power-of-two path over limbMul64.
func limbIntn(r *Rand, n int) int {
	un := uint64(n)
	for {
		hi, lo := limbMul64(r.Uint64(), un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// TestShuffleInt32sMatchesIntnDraws pins ShuffleInt32s to the Fisher–Yates
// loop over Intn(i+1) draws: the same permutation, and the same final
// State, for sizes around the power-of-two fast path and over a named
// ~int32 type.
func TestShuffleInt32sMatchesIntnDraws(t *testing.T) {
	type id int32
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 64, 65, 1000, 70999} {
		for seed := uint64(1); seed <= 3; seed++ {
			want, got := New(seed), New(seed)
			wp, gp := make([]int32, n), make([]id, n)
			for i := range wp {
				wp[i], gp[i] = int32(i), id(i)
			}
			for i := n - 1; i > 0; i-- {
				j := want.Intn(i + 1)
				wp[i], wp[j] = wp[j], wp[i]
			}
			ShuffleInt32s(got, gp)
			for i := range wp {
				if int32(gp[i]) != wp[i] {
					t.Fatalf("n=%d seed=%d: p[%d] = %d, Intn loop gives %d", n, seed, i, gp[i], wp[i])
				}
			}
			if got.State() != want.State() {
				t.Fatalf("n=%d seed=%d: state %v after the shuffle, Intn loop leaves %v", n, seed, got.State(), want.State())
			}
		}
	}
}

// BenchmarkShuffleInt32s shuffles the ID space of Slashdot B, against the
// same loop over Intn.
func BenchmarkShuffleInt32s(b *testing.B) {
	p := make([]int32, 70999)
	b.Run("locals", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			ShuffleInt32s(r, p)
		}
	})
	b.Run("intn", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			for i := len(p) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				p[i], p[j] = p[j], p[i]
			}
		}
	})
}
