package sim

import "time"

// Rand is a deterministic pseudo-random source (SplitMix64). All
// simulated randomness — cell loss, reordering, jitter — draws from one
// Rand so a run is fully determined by its seed.
type Rand struct {
	state uint64
}

// NewRand returns a source seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next value in the sequence.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a value in [0, 1).
func (r *Rand) float() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Chance reports true with probability p (clamped to [0, 1]).
func (r *Rand) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.float() < p
}

// Jitter returns a duration uniform in [0, max).
func (r *Rand) Jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(r.Uint64() % uint64(max))
}
