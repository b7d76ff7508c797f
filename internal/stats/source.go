package stats

// source is math/rand's generator — the additive lagged-Fibonacci
// register x[n] = x[n-607] + x[n-273] over 607 int64 words, each word
// seeded from three values of the Lehmer chain x -> 48271·x mod
// (2^31-1) and XORed with rngCooked — and yields, for every seed, the
// stream rand.NewSource(seed) yields. It differs only in when the
// register is filled. Chain value k is 48271^k·x0 mod M, so every word
// is an independent function of the seed (lehmerPow): Seed keeps just
// the seed, and a word is built when a draw is about to touch it for
// the first time. A source never drawn builds nothing, one drawn once
// 2·rngBatch of the 607 words. DESIGN.md, "The per-block sampling RNG".
type source struct {
	vec [rngLen]int64
	// A draw steps tap and feed down one word, wrapping at 0, then adds
	// vec[tap] into vec[feed] and returns the sum: math/rand's loop.
	tap, feed int
	// low is the lowest feed index whose words are built. feed's first
	// pass, from 334 down to 0, reads every word — 333..0 as feed,
	// 606..273 as tap — and low goes ahead of it a batch at a time. At 0
	// every word is resident and feed < low is math/rand's wrap test.
	low  int
	seed uint32 // normalised, in [1, M)
}

const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap // where feed starts
	rngBatch = 16

	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

// lehmerPow[i] is 48271^(21+3i) mod M: math/rand's Seed steps the chain
// 20 times, then three times per word, and word i starts at the first
// of its three.
var lehmerPow = func() (pow [rngLen]uint32) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = lehmerMul(x, lehmerA)
	}
	for i := range pow {
		pow[i] = uint32(x)
		x = lehmerMul(lehmerMul(lehmerMul(x, lehmerA), lehmerA), lehmerA)
	}
	return pow
}()

// lehmerMul returns a·b mod M for a, b in [1, M). 2^31 = 1 (mod M), so
// the high bits fold onto the low ones: the first fold leaves less than
// 2^32, the second at most M, and M itself — 0 mod the prime M — cannot
// come from two nonzero factors.
func lehmerMul(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerM + p>>31
	return p&lehmerM + p>>31
}

func (s *source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint32(seed)
	s.tap, s.feed, s.low = 0, rngFeed, rngFeed
}

//approx:hotpath
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < s.low {
		s.fill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 repeats Uint64's body. Every *rand.Rand method but Uint64 draws
// through it, the body is past the inliner's budget, and a second call
// costs 0.8 ns of a 3 ns draw.
//
//approx:hotpath
func (s *source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < s.low {
		s.fill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & (1<<63 - 1)
}

// fill runs when feed has stepped below low. With every word built that
// is feed wrapping. Before, it builds the next batch: the feed words
// below low, and their taps 273 above — from 334 up, that is; a tap
// below 334 was an earlier draw's feed.
func (s *source) fill() {
	if s.low == 0 {
		s.feed += rngLen
		return
	}
	hi := s.low
	s.low = max(hi-rngBatch, 0)
	s.build(s.low, hi)
	s.build(max(s.low+rngTap, rngFeed), hi+rngTap)
}

// build fills vec[lo:hi] with the words math/rand's Seed puts there:
// three consecutive chain values, 20 bits apart, XOR rngCooked.
//
//approx:hotpath
func (s *source) build(lo, hi int) {
	for i := lo; i < hi; i++ {
		x := lehmerMul(uint64(lehmerPow[i]), uint64(s.seed))
		u := int64(x) << 40
		x = lehmerMul(x, lehmerA)
		u ^= int64(x) << 20
		x = lehmerMul(x, lehmerA)
		s.vec[i] = u ^ int64(x) ^ rngCooked[i]
	}
}
