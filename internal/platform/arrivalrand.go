package platform

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// pcgSource adapts the standard library's PCG (math/rand/v2) to the
// math/rand Source64 interface, so the NDT runner, traceroute and
// netsim keep taking a *rand.Rand while each arrival's stream costs two
// stores to seed instead of math/rand's 607-word warm-up.
type pcgSource struct{ pcg randv2.PCG }

// Seed sets both PCG words from seed: the high word is the seed itself
// and the low word a SplitMix64 mix of it. Arrival seeds are drawn from
// a shard stream and may sit close together; the mix makes seeds that
// differ in a few bits start from 128-bit states that differ in about
// half of theirs, so no two arrivals begin on correlated or overlapping
// stretches of PCG's single cycle.
func (s *pcgSource) Seed(seed int64) {
	s.pcg.Seed(uint64(seed), splitMix64(uint64(seed)))
}

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }

func (s *pcgSource) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }

// splitMix64 is the SplitMix64 output function (Steele, Lea & Flood):
// a bijective 64-bit avalanche mix.
func splitMix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// newArrivalRand returns the private RNG of one arrival, a pure
// function of the arrival's scheduled seed.
func newArrivalRand(seed int64) *rand.Rand {
	src := &pcgSource{}
	src.Seed(seed)
	return rand.New(src)
}
