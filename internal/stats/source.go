package stats

// Source is math/rand's generator — the additive lagged-Fibonacci
// register x[n] = x[n-607] + x[n-273] over 607 int64 words, each word
// seeded from three values of the Lehmer chain x -> 48271·x mod
// (2^31-1) and XORed with rngCooked — and yields, for every seed, the
// stream rand.NewSource(seed) yields. It differs only in when the
// register is filled. Chain value k is 48271^k·x0 mod M, so every word
// is an independent function of the seed (lehmerPow): Seed keeps just
// the seed, and a word is built when a draw is about to touch it for
// the first time. The first rngBatch draws read words no draw has
// written, so they are sums of words computed on the spot and the
// register itself is allocated only by the draw after them. A source
// never drawn builds nothing, one drawn 16 times 32 words and no
// register. DESIGN.md, "The per-block sampling RNG".
type Source struct {
	vec *[rngLen]int64 // nil until a draw goes past the first batch
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

// NewSource returns a Source seeded with seed: the stream of
// rand.NewSource(seed), for callers that draw only Int63, Int63n,
// Uint64 or Float64 and so need no *rand.Rand around it.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed restarts the source on seed's stream. A register an earlier
// draw allocated is kept; fill rebuilds each of its words before a
// draw reads it.
func (s *Source) Seed(seed int64) {
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
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < s.low {
		return uint64(s.slow())
	}
	v := s.vec
	x := v[s.feed] + v[s.tap]
	v[s.feed] = x
	return uint64(x)
}

// Int63 repeats Uint64's body. Every *rand.Rand method but Uint64 draws
// through it, the body is past the inliner's budget, and a second call
// costs 0.8 ns of a 3 ns draw.
//
//approx:hotpath
func (s *Source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < s.low {
		return s.slow() & (1<<63 - 1)
	}
	v := s.vec
	x := v[s.feed] + v[s.tap]
	v[s.feed] = x
	return x & (1<<63 - 1)
}

// Float64 returns what (*rand.Rand).Float64 returns over this source:
// Int63 scaled to [0, 1), drawn again in the rare case the scaling
// rounds up to 1.
//
//approx:hotpath
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// redrawFrom is where Float64's scaling of an Int63 draw rounds to 1:
// float64(x) is 2^63 for every x from 2^63-512 up (2^63-512 is the tie
// between 2^63-1024 and 2^63, and the even mantissa wins).
const redrawFrom = 1<<63 - 512

// DrawThreshold returns the t for which an Int63 draw x below
// redrawFrom has x < t exactly when float64(x)/2^63 < ratio: the
// integer form of Float64() < ratio that BelowMask compares against.
// The scaled draw grows with x, so t is the least x at which it reaches
// ratio; it is redrawFrom for any ratio of 1 or more and 0 for any
// ratio of 0 or less. float64(x) is within 512 of x below 2^63, so t is
// within 2048 of ratio·2^63, and bisection over that range finds it.
func DrawThreshold(ratio float64) int64 {
	if !(ratio > 0) {
		return 0
	}
	if ratio >= 1 {
		return redrawFrom
	}
	c := int64(ratio * (1 << 63))
	lo, hi := max(c-2048, 0), min(c+1, redrawFrom)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < ratio {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// BelowMask makes the draws of n Float64 calls, 0 <= n <= 64, and sets
// bit i of the result when draw i is below the ratio whose threshold t
// is (DrawThreshold): Float64() < ratio without the call per draw or
// the float conversion. A draw at or above redrawFrom, which Float64
// would round to 1, is drawn again as Float64 draws it again.
//
// Draws run in stretches over resident words where neither index
// wraps, as adds over two slices of the register; the draw that wraps
// or builds words goes through Int63. Each draw shifts its bit in at
// the top of the mask, and the last shift brings draw 0 down to bit 0.
//
//approx:hotpath
func (s *Source) BelowMask(t int64, n int) uint64 {
	var mask uint64
	for i := 0; i < n; {
		if run := min(s.feed-s.low, s.tap); run > 0 {
			fv, tv := s.vec[s.feed-run:s.feed], s.vec[s.tap-run:s.tap]
			k := len(fv)
			tv = tv[:k]
			for k > 0 && i < n {
				k--
				x := fv[k] + tv[k]
				fv[k] = x
				if x&(1<<63-1) >= redrawFrom {
					continue
				}
				// x-t, both below 2^63, is negative exactly when x < t.
				mask = mask>>1 | uint64(x&(1<<63-1)-t)&(1<<63)
				i++
			}
			s.feed -= run - k
			s.tap -= run - k
			continue
		}
		if x := s.Int63(); x < redrawFrom {
			mask = mask>>1 | uint64(x-t)&(1<<63)
			i++
		}
	}
	return mask >> (64 - n)
}

// Below makes the draw of one Float64 call and reports whether it is
// below the ratio whose threshold t is (DrawThreshold): BelowMask(t, 1)
// without the loop over a stretch, for a caller that draws one line at
// a time.
//
//approx:hotpath
func (s *Source) Below(t int64) bool {
	for {
		if x := s.Int63(); x < redrawFrom {
			return x < t
		}
	}
}

// Int63n returns what (*rand.Rand).Int63n(n) returns over this source
// for n > 0: Int63 masked when n is a power of two, else Int63 drawn
// until it falls below the largest multiple of n, modulo n.
func (s *Source) Int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	limit := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > limit {
		v = s.Int63()
	}
	return v % n
}

// slow makes the draw whose feed has stepped below low. Until the
// register exists, a draw of the first batch reads two words no draw
// has written, and returns their sum straight from the seed. The draw
// after that batch allocates the register, builds the batch's words
// into it and replays the batch's adds; from there fill keeps the
// built words ahead of feed.
func (s *Source) slow() int64 {
	if s.vec == nil {
		if s.feed >= rngFeed-rngBatch {
			return s.word(s.feed) + s.word(s.tap)
		}
		s.vec = new([rngLen]int64)
		s.fill()
		for f, t := rngFeed-1, rngLen-1; f >= s.low; f, t = f-1, t-1 {
			s.vec[f] += s.vec[t]
		}
	}
	s.fill()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// fill runs when feed has stepped below low. With every word built that
// is feed wrapping. Before, it builds the next batch: the feed words
// below low, and their taps 273 above — from 334 up, that is; a tap
// below 334 was an earlier draw's feed.
func (s *Source) fill() {
	if s.low == 0 {
		s.feed += rngLen
		return
	}
	hi := s.low
	s.low = max(hi-rngBatch, 0)
	s.build(s.vec[s.low:hi], s.low)
	if tap, end := max(s.low+rngTap, rngFeed), hi+rngTap; tap < end {
		s.build(s.vec[tap:end], tap)
	}
}

// word returns word i as math/rand's Seed leaves it.
func (s *Source) word(i int) int64 {
	var w [1]int64
	s.build(w[:], i)
	return w[0]
}

// build sets dst to words lo, lo+1, ... as math/rand's Seed leaves
// them: three consecutive chain values, 20 bits apart, XOR rngCooked.
//
//approx:hotpath
func (s *Source) build(dst []int64, lo int) {
	for k := range dst {
		i := lo + k
		x := lehmerMul(uint64(lehmerPow[i]), uint64(s.seed))
		u := int64(x) << 40
		x = lehmerMul(x, lehmerA)
		u ^= int64(x) << 20
		x = lehmerMul(x, lehmerA)
		dst[k] = u ^ int64(x) ^ rngCooked[i]
	}
}
