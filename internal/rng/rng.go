// Package rng provides a small, fast, deterministic random number generator
// (xoshiro256** seeded via SplitMix64). Every stochastic element of the
// study — synthetic structure generation, initial velocities, network jitter
// — draws from an explicitly seeded Source so that runs are exactly
// reproducible and independent streams never interfere.
package rng

import "math"

// Source is a xoshiro256** generator. The zero value is not valid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed using SplitMix64, which
// guarantees a well-mixed nonzero state for any seed including 0.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the generator state from seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (r *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed float64 with mean 0 and standard
// deviation 1, using the Box–Muller transform.
func (r *Source) Normal() float64 {
	// Avoid log(0) by mapping the first draw into (0, 1].
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormalScaled returns a normal deviate with the given mean and stddev.
func (r *Source) NormalScaled(mean, stddev float64) float64 {
	return mean + stddev*r.Normal()
}

// Exponential returns an exponentially distributed float64 with the given
// mean (> 0).
func (r *Source) Exponential(mean float64) float64 {
	return -mean * math.Log(1-r.Float64())
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
