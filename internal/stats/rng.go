// Package stats provides the deterministic random-number machinery,
// probability distributions, and summary statistics used throughout the
// simulator and the benchmark harness.
//
// All randomness in the repository flows through RNG so that every
// simulation run is exactly reproducible from its seed. RNG implements
// xoshiro256++ seeded via splitmix64, following the reference
// implementations by Blackman and Vigna. Independent sub-streams can be
// derived with Fork, which lets concurrent components (processes, delay
// models, workload generators) draw numbers without sharing state or
// coordinating on ordering.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator (xoshiro256++).
// It is not safe for concurrent use; derive one per goroutine with Fork.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the state and returns the next output of the
// splitmix64 generator. It is used to initialize and fork xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Distinct seeds give
// independent, well-mixed streams; a zero seed is valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Fork derives a new generator whose stream is independent of the parent's
// subsequent output. The parent advances by one draw.
func (r *RNG) Fork() *RNG {
	sm := r.Uint64()
	child := &RNG{}
	for i := range child.s {
		child.s[i] = splitmix64(&sm)
	}
	return child
}

// Intn returns an integer uniformly distributed in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Rejection sampling to avoid modulo bias.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Int63n returns an int64 uniformly distributed in [0, n). It panics if
// n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with non-positive n")
	}
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int64(v % max)
		}
	}
}

// Float64 returns a float uniformly distributed in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float with rate 1
// (mean 1), via inversion.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
