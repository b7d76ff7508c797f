// Deterministic seeded reservoirs: the second-stage unit sample of the
// streaming plane. One reservoir exists per (window, stratum); its RNG
// is seeded from (query seed, window index, stratum key), so the
// admission sequence depends only on the stratum's record order — the
// stream's arrival order, in which one goroutine folds every record.
package stream

import "approxhadoop/internal/stats"

// reservoir is Waterman's Algorithm R: the first cap records are
// admitted outright, record i > cap replaces a uniform slot with
// probability cap/i. The resulting sample is uniform without
// replacement over everything offered, which is exactly the
// simple-random-sample the within-stratum variance term assumes.
type reservoir struct {
	cap  int
	seed int64
	rng  *stats.Source // made by the first record past cap; most strata never get there
	vals []float64
	seen int64
}

func newReservoir(capacity int, seed int64) *reservoir {
	r := &reservoir{}
	r.reset(capacity, seed)
	return r
}

// reset readies a closed window's reservoir for another (window,
// stratum): the value buffer and the source stay, so a stream's steady
// state allocates neither again.
func (r *reservoir) reset(capacity int, seed int64) {
	if capacity < 1 {
		capacity = 1
	}
	r.cap, r.seed, r.vals, r.seen = capacity, seed, r.vals[:0], 0
}

// admit registers one offered record and returns the slot its value
// should be stored in, or -1 when the record is not sampled. Callers
// parse the record's value only on admission, so a shrunken capacity
// directly shrinks per-record work.
func (r *reservoir) admit() int {
	r.seen++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, 0)
		return len(r.vals) - 1
	}
	if r.seen == int64(r.cap)+1 {
		// The first draw. Re-seeding a source left by an earlier
		// stratum is O(1) and restarts it on the stream a new one would
		// yield (stats.NewSource).
		if r.rng == nil {
			r.rng = stats.NewSource(r.seed)
		} else {
			r.rng.Seed(r.seed)
		}
	}
	j := r.rng.Int63n(r.seen)
	if j < int64(r.cap) {
		return int(j)
	}
	return -1
}

// stat folds the sampled values into a running statistic for the
// estimator.
func (r *reservoir) stat() stats.RunningStat {
	var s stats.RunningStat
	for _, v := range r.vals {
		s.Add(v)
	}
	return s
}

// mix64 is splitmix64's finalizer: a cheap, well-distributed hash for
// deriving per-(window, stratum) seeds and shedding coins from the
// query seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stratumSeed derives the reservoir seed for (seed, window, stratum).
func stratumSeed(seed, window int64, key uint64) int64 {
	h := mix64(uint64(seed) ^ mix64(uint64(window)) ^ mix64(key))
	s := int64(h & (1<<62 - 1)) // rand.NewSource wants a non-huge positive
	if s == 0 {
		s = 1
	}
	return s
}

// keepCoin returns a uniform [0,1) value for the shedding decision of
// (seed, window, stratum): the stratum is processed iff its coin is
// below the plan's KeepFrac. Using a hash rather than a shared RNG
// keeps the decision independent of stratum arrival order.
func keepCoin(seed, window int64, key uint64) float64 {
	h := mix64(uint64(seed)*0x9e3779b97f4a7c15 + mix64(uint64(window)) + mix64(key^0xa5a5a5a5a5a5a5a5))
	return float64(h>>11) / (1 << 53)
}

// fnv1a hashes a stratum label to its 64-bit key.
func fnv1a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}
