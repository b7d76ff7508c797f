package stats

import (
	"math"
	"math/rand"
)

// NewRand returns a deterministic PRNG seeded with seed. All simulator
// and workload randomness flows through explicitly seeded sources so
// experiments are reproducible. The stream is that of
// rand.New(rand.NewSource(seed)), bit for bit; the Source behind it
// pays for seeding in proportion to what is drawn (source.go).
func NewRand(seed int64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// Pareto draws from a Pareto distribution with minimum xm and shape
// alpha; heavy-tailed sizes such as request or article lengths.
func Pareto(r *rand.Rand, xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// SampleWithoutReplacement returns k distinct integers drawn uniformly
// from [0, n) in random order (a partial Fisher-Yates shuffle). If
// k >= n it returns a permutation of all n integers.
func SampleWithoutReplacement(r *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := r.Perm(n)
	return perm[:k]
}

// Bernoulli returns true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	return r.Float64() < p
}
