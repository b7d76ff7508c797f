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
