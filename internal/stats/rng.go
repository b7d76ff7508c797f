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

// Zipf draws ranks in [1, n] with P(rank = k) proportional to
// 1/k^s (s > 1). It holds math/rand's rejection-based generator by
// value, so a Zipf kept in a local costs the one allocation
// rand.NewZipf makes.
type Zipf struct {
	z rand.Zipf
}

// NewZipf constructs a Zipf sampler over {1, ..., n} with exponent s.
// Exponents at or below 1 are clamped slightly above 1, which keeps the
// heavy tail the popularity workloads need while staying in the
// generator's supported range.
func NewZipf(r *rand.Rand, s float64, n uint64) Zipf {
	if s <= 1 {
		s = 1.0001
	}
	if n == 0 {
		n = 1
	}
	return Zipf{z: *rand.NewZipf(r, s, 1, n-1)}
}

// Next returns the next rank in [1, n].
func (z *Zipf) Next() uint64 { return z.z.Uint64() + 1 }

// LogNormal draws from a log-normal distribution with the given
// location and scale of the underlying normal.
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
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
