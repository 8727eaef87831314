// Package rng provides deterministic, splittable pseudo-random number
// generation and the samplers used by the broadcast protocols (Bernoulli
// trials and exponential variates).
//
// Every protocol in this repository draws randomness exclusively through
// this package so that simulations are reproducible from a single root
// seed: the root seed is split into independent per-device streams with
// SplitMix64, and each stream is a PCG generator from math/rand/v2.
package rng

import "math/rand/v2"

// SplitMix64 advances the state by one step and returns the next output of
// the splitmix64 sequence. It is used to derive independent child seeds
// from a parent seed; splitmix64 is the standard seed-scrambling function
// for this purpose and has full 64-bit period.
func SplitMix64(state uint64) uint64 {
	z := state + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Child derives the seed for the idx-th child stream of the given parent
// seed. Distinct (seed, idx) pairs yield statistically independent streams.
func Child(seed uint64, idx uint64) uint64 {
	return SplitMix64(SplitMix64(seed) ^ SplitMix64(idx*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d))
}

// pcgSeeds derives the two PCG seed words this package uses for a stream.
func pcgSeeds(seed uint64) (uint64, uint64) {
	return SplitMix64(seed), SplitMix64(seed ^ 0xdeadbeefcafef00d)
}

// New returns a deterministic generator for the given seed.
func New(seed uint64) *rand.Rand {
	lo, hi := pcgSeeds(seed)
	return rand.New(rand.NewPCG(lo, hi))
}

// NewChild returns a deterministic generator for the idx-th child stream of
// seed. It is equivalent to New(Child(seed, idx)).
func NewChild(seed uint64, idx uint64) *rand.Rand {
	return New(Child(seed, idx))
}

// Reseed resets p in place to the exact stream New(seed) would produce —
// the allocation-free path for engines that recycle their generators
// across runs (a rand.Rand wrapping p continues from the fresh stream).
func Reseed(p *rand.PCG, seed uint64) {
	lo, hi := pcgSeeds(seed)
	p.Seed(lo, hi)
}

// ReseedChild resets p in place to the stream NewChild(seed, idx) would
// produce.
func ReseedChild(p *rand.PCG, seed, idx uint64) {
	Reseed(p, Child(seed, idx))
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func Bernoulli(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// BernoulliPow2 reports true with probability 2^(-k) for k >= 0. It uses
// k fair coin flips rather than floating point, so it is exact for any k
// and cheap for the small k used by decay-style protocols.
func BernoulliPow2(r *rand.Rand, k int) bool {
	if k <= 0 {
		return true
	}
	for k > 0 {
		step := k
		if step > 63 {
			step = 63
		}
		bits := r.Uint64() & (1<<uint(step) - 1)
		if bits != 0 {
			return false
		}
		k -= step
	}
	return true
}

// Exponential samples from the exponential distribution with rate lambda
// (mean 1/lambda), as used by Partition(beta) where delta_v ~ Exp(beta).
func Exponential(r *rand.Rand, lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exponential requires lambda > 0")
	}
	return r.ExpFloat64() / lambda
}

// BlockingTime samples the blocking time B_v of Algorithm 1 (Section 8):
//
//	B = 2^b with probability 2^-b, for 1 <= b < log2(n), and
//	B = n   with the remaining probability.
//
// n must be a power of two (callers round up, per the paper).
func BlockingTime(r *rand.Rand, n int) int {
	if n < 2 {
		return n
	}
	logN := Log2Ceil(n)
	for b := 1; b < logN; b++ {
		if r.Uint64()&1 == 0 { // probability 1/2 per level
			return 1 << uint(b)
		}
	}
	return n
}

// Log2Ceil returns ceil(log2(x)) for x >= 1, and 0 for x <= 1.
func Log2Ceil(x int) int {
	if x <= 1 {
		return 0
	}
	k := 0
	v := 1
	for v < x {
		v <<= 1
		k++
	}
	return k
}

// NextPow2 returns the smallest power of two >= x (and 1 for x <= 1).
func NextPow2(x int) int {
	return 1 << uint(Log2Ceil(x))
}
