// Package rng provides a small, deterministic pseudo-random number kit used
// throughout the repository. Every experiment in the paper reproduction is
// seeded, so results are replayable run to run.
//
// The generator is xoshiro256**, seeded through splitmix64 as its authors
// recommend. It is not cryptographically secure; it is fast, has a 2^256-1
// period, and passes the statistical batteries relevant for simulation work.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random generator. The zero value is not
// valid; construct one with New.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances the seed and returns the next splitmix64 output. It is
// used only to initialize the xoshiro state so that nearby seeds produce
// uncorrelated streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds yield independent
// streams; the same seed always yields the same stream.
func New(seed uint64) *Rand {
	r := &Rand{}
	for i := range r.s {
		r.s[i] = splitmix64(&seed)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new independent generator from r. It consumes entropy from
// r, so the parent stream advances. Use it to hand child components their own
// streams without sharing state.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// State returns the generator's full internal state. Together with SetState
// it makes a stream checkpointable: capture the state, serialize it, and a
// generator restored from it continues the exact same sequence — the
// property session checkpoints lean on for byte-identical resumed walks.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState restores a state previously captured with State. The all-zero
// state is invalid for xoshiro and is replaced with a fixed nonzero word —
// it can only arise from corrupted input, never from State().
func (r *Rand) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	r.s = s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Rejection sampling (Lemire's method) removes modulo bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	// Fast path for powers of two.
	if un&(un-1) == 0 {
		return int(r.Uint64() & (un - 1))
	}
	// Lemire's nearly-divisionless bounded generation.
	for {
		x := r.Uint64()
		hi, lo := bits.Mul64(x, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate via the polar Box–Muller
// (Marsaglia) method. Unused spare values are discarded to keep the
// generator's state trajectory independent of call interleaving.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// LogNormal returns exp(N(mu, sigma^2)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts performs an in-place Fisher–Yates shuffle.
func (r *Rand) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle performs an in-place Fisher–Yates shuffle using swap, in the manner
// of math/rand.Shuffle.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
