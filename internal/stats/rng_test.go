package stats

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func mathRand(seed int64) rand.Source64 { return rand.NewSource(seed).(rand.Source64) }

// sameDraws fails unless the next n Uint64s of got and want agree.
func sameDraws(t *testing.T, got *Source, want rand.Source64, n int, what string) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s, draw %d: Uint64 = %#x, math/rand %#x", what, i, g, w)
		}
	}
}

// edgeSeeds are the seeds where math/rand's normalisation (mod 2^31-1,
// negatives shifted up, 0 replaced by 89482311) changes branch.
var edgeSeeds = []int64{
	0, 1, -1, 2, lehmerM, -lehmerM, 2 * lehmerM, -2 * lehmerM, 3*lehmerM + 1, -(5*lehmerM + 1),
	lehmerM - 1, lehmerM + 1, 1 << 31, 1<<31 + 1, 89482311, -89482311, 89482311 + lehmerM,
	1 << 32, 1<<62 - 1, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

func testSeeds() []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	r := rand.New(rand.NewSource(20261002))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

func TestLehmerPowIsSeedChain(t *testing.T) {
	// The chain as math/rand steps it (Schrage's method), from x0 = 1.
	x := int32(1)
	step := func() {
		hi, lo := x/44488, x%44488
		if x = 48271*lo - 3399*hi; x < 0 {
			x += lehmerM
		}
	}
	for i := 0; i < 20; i++ {
		step()
	}
	for i := 0; i < rngLen; i++ {
		step()
		if lehmerPow[i] != uint32(x) {
			t.Fatalf("lehmerPow[%d] = %d, chain value %d is %d", i, lehmerPow[i], 21+3*i, x)
		}
		step()
		step()
	}
}

func TestLehmerMulFoldsExactly(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	check := func(a, b uint64) {
		if got, want := lehmerMul(a, b), a*b%lehmerM; got != want {
			t.Fatalf("lehmerMul(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
	for _, a := range []uint64{1, 2, lehmerA, 1 << 30, lehmerM - 2, lehmerM - 1} {
		for _, b := range []uint64{1, 2, lehmerA, 1 << 30, lehmerM - 2, lehmerM - 1} {
			check(a, b)
		}
	}
	for i := 0; i < 100000; i++ {
		check(1+uint64(r.Int63n(lehmerM-1)), 1+uint64(r.Int63n(lehmerM-1)))
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		sameDraws(t, NewSource(seed), mathRand(seed), 5000, fmt.Sprint("seed ", seed))
	}
}

// TestSourceResumesOnEveryBoundary stops at each draw count where the
// implementation changes state — batch edges of the lazy pass, the tap
// lag, the last lazily built word, both wraps — and resumes through
// Int63, which carries its own copy of the draw and so must call fill
// at the same counts Uint64 does.
func TestSourceResumesOnEveryBoundary(t *testing.T) {
	stops := map[int]bool{273: true, 941: true}
	for _, edge := range []int{rngFeed, rngLen, rngLen + rngFeed, 2 * rngLen} {
		for b := edge; b > edge-rngFeed && b >= 0; b -= rngBatch {
			stops[b] = true
		}
	}
	for stop := range stops {
		for n := max(stop-1, 0); n <= stop+1; n++ {
			got, want := NewSource(int64(n)+7), mathRand(int64(n)+7)
			sameDraws(t, got, want, n, fmt.Sprint("towards a stop at ", n))
			for i := 1; i <= 2*rngLen; i += 2 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("after %d draws, draw +%d: Int63 = %#x, math/rand %#x", n, i, g, w)
				}
				sameDraws(t, got, want, 1, fmt.Sprintf("after %d draws and %d more", n, i))
			}
		}
	}
}

// TestSourceReseedRestartsStream: a source re-seeded after k draws —
// the stream plane re-seeds the one a closed window's reservoir left
// behind — yields the stream of a new one, whichever of the lazy pass's
// batch-of-16 builds the earlier draws had reached.
func TestSourceReseedRestartsStream(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 63, 64, 65, 200, 333, 334, 335, 607, 1000, 2000} {
		got := NewSource(99)
		for i := 0; i < n; i++ {
			got.Uint64()
		}
		if registered := got.vec != nil; registered != (n > rngBatch) {
			t.Fatalf("after %d draws the register is allocated: %v, want %v", n, registered, n > rngBatch)
		}
		got.Seed(-12345)
		// A source re-seeded before its register exists still has none,
		// and the first batch of the new stream comes from the seed alone.
		want := mathRand(-12345)
		sameDraws(t, got, want, rngBatch, fmt.Sprintf("reseeded after %d draws", n))
		if n <= rngBatch && got.vec != nil {
			t.Fatalf("reseeded after %d draws: %d more allocated the register", n, rngBatch)
		}
		sameDraws(t, got, want, 1500, fmt.Sprintf("reseeded after %d draws, past the first batch", n))

		// And through *rand.Rand, which re-seeds the same Source.
		r, fresh := NewRand(99), NewRand(4242)
		for i := 0; i < n; i++ {
			r.Int63n(int64(i) + 70)
		}
		r.Seed(4242)
		for i := 1; i <= 700; i++ {
			if g, w := r.Int63n(int64(i)+8), fresh.Int63n(int64(i)+8); g != w {
				t.Fatalf("Rand reseeded after %d draws, draw %d: Int63n = %d, NewRand(4242) %d", n, i, g, w)
			}
		}
	}
}

// TestRandMethodsMatchMathRand drives rand.New over both sources
// through every *rand.Rand method the tree calls, interleaved so that
// each method starts from many register positions.
func TestRandMethodsMatchMathRand(t *testing.T) {
	for _, seed := range testSeeds()[:60] {
		got, want := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
		gz, wz := rand.NewZipf(got, 1.2, 1, 99999), rand.NewZipf(want, 1.2, 1, 99999)
		eq := func(what string, g, w any) {
			t.Helper()
			if g != w {
				t.Fatalf("seed %d: %s = %v, math/rand %v", seed, what, g, w)
			}
		}
		for round := 0; round < 40; round++ {
			eq("Float64", got.Float64(), want.Float64())
			eq("Int63", got.Int63(), want.Int63())
			eq("Int63n", got.Int63n(1<<40+int64(round)), want.Int63n(1<<40+int64(round)))
			eq("Int63n(pow2)", got.Int63n(1<<20), want.Int63n(1<<20))
			eq("Intn", got.Intn(1000+round), want.Intn(1000+round))
			eq("Intn(big)", got.Intn(1<<40+round), want.Intn(1<<40+round))
			eq("NormFloat64", got.NormFloat64(), want.NormFloat64())
			eq("ExpFloat64", got.ExpFloat64(), want.ExpFloat64())
			eq("Uint64", got.Uint64(), want.Uint64())
			eq("Zipf", gz.Uint64(), wz.Uint64())
			gp, wp := got.Perm(17+round), want.Perm(17+round)
			for i := range wp {
				eq("Perm", gp[i], wp[i])
			}
			got.Shuffle(len(gp), func(i, j int) { gp[i], gp[j] = gp[j], gp[i] })
			want.Shuffle(len(wp), func(i, j int) { wp[i], wp[j] = wp[j], wp[i] })
			for i := range wp {
				eq("Shuffle", gp[i], wp[i])
			}
		}
		got.Seed(seed + 1)
		want.Seed(seed + 1)
		eq("Float64 after Rand.Seed", got.Float64(), want.Float64())
	}
}

var keptRand *rand.Rand // makes NewRand's result escape, as it does at every call site that stores it

// allocated is testing.AllocsPerRun that also reports heap bytes: the
// allocations and bytes of one call of f, averaged over runs and
// truncated.
func allocated(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestNewRandIsTheSource pins what NewRand hands out: the stream of
// rand.New(rand.NewSource(seed)), in two small allocations (the Source
// and the Rand) through the first batch of draws, and a third, the
// register, from the draw after it.
func TestNewRandIsTheSource(t *testing.T) {
	for _, seed := range edgeSeeds {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, i+1, g, w)
			}
		}
	}
	draw := func(n int) func() {
		return func() {
			keptRand = NewRand(5)
			for i := 0; i < n; i++ {
				keptRand.Int63()
			}
		}
	}
	if n, b := allocated(100, draw(rngBatch)); n != 2 || b >= 256 {
		t.Errorf("NewRand + %d draws: %v allocations of %v B, want 2 (Source, Rand) under 256 B", rngBatch, n, b)
	}
	if n, b := allocated(100, draw(rngBatch+1)); n != 3 || b < 8*rngLen {
		t.Errorf("NewRand + %d draws: %v allocations of %v B, want 3 (Source, Rand, register)", rngBatch+1, n, b)
	}
}

// TestSourceFloat64MatchesRand holds Source.Float64 to
// (*rand.Rand).Float64 over math/rand's own source, bit for bit.
func TestSourceFloat64MatchesRand(t *testing.T) {
	for _, seed := range testSeeds() {
		got, want := NewSource(seed), rand.New(rand.NewSource(seed))
		for i := 1; i <= 2000; i++ {
			if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: Float64 = %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}

// TestSourceInt63nMatchesRand holds Source.Int63n to
// (*rand.Rand).Int63n over math/rand's own source: powers of two,
// which mask, and bounds whose rejection zone is nearly half the range,
// as well as the growing counts a stream reservoir draws with.
func TestSourceInt63nMatchesRand(t *testing.T) {
	bounds := []int64{1, 2, 3, 7, 1 << 20, 1<<40 + 3, 1 << 62, 1<<62 + 1, 3 << 61, math.MaxInt64}
	for _, seed := range testSeeds()[:80] {
		got, want := NewSource(seed), rand.New(rand.NewSource(seed))
		for i := 1; i <= 1000; i++ {
			n := int64(i) + 8
			if i%3 == 0 {
				n = bounds[i%len(bounds)]
			}
			if g, w := got.Int63n(n), want.Int63n(n); g != w {
				t.Fatalf("seed %d draw %d: Int63n(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		}
	}
}

// maskRatios are the ratios the BelowMask tests draw against: all and
// almost none kept, the usual, and the largest ratio below 1.
var maskRatios = []float64{1, 0x1p-60, 0.1, 0.25, 1 - 0x1p-53}

// TestDrawThresholdIsExact checks the threshold against its definition
// — t-1 scales below the ratio and t does not — at the mask ratios,
// powers of two, random ratios, and ratios that are a scaled draw
// exactly along with the floats on either side of them.
func TestDrawThresholdIsExact(t *testing.T) {
	ratios := append([]float64{0x1p-1074, 0x1p-63, 0x1p-62, 0x1p-53, 0x1p-52, 0x1p-11, 0x1p-10, 0.5, 1 - 0x1p-52}, maskRatios...)
	r := rand.New(rand.NewSource(44))
	for i := 0; i < 2000; i++ {
		ratios = append(ratios, r.Float64(), math.Ldexp(r.Float64(), -r.Intn(70)))
	}
	// Ratios that are a scaled draw exactly, and the floats beside them.
	for i := 0; i < 2000; i++ {
		f := float64(r.Int63()) / (1 << 63)
		ratios = append(ratios, f, math.Nextafter(f, 0), math.Nextafter(f, 1))
	}
	for _, ratio := range ratios {
		if ratio <= 0 {
			continue
		}
		th := DrawThreshold(ratio)
		if th <= 0 || th > redrawFrom {
			t.Fatalf("ratio %v: threshold %d outside (0, 2^63-512]", ratio, th)
		}
		if below, at := float64(th-1)/(1<<63), float64(th)/(1<<63); !(below < ratio && ratio <= at) {
			t.Fatalf("ratio %v: threshold %d scales to %v, one less to %v", ratio, th, at, below)
		}
	}
	if th := DrawThreshold(1); th != redrawFrom {
		t.Errorf("DrawThreshold(1) = %d, want %d: every draw Float64 keeps is below 1", th, int64(redrawFrom))
	}
	for _, ratio := range []float64{0, -1, math.NaN(), math.Inf(-1)} {
		if th := DrawThreshold(ratio); th != 0 {
			t.Errorf("DrawThreshold(%v) = %d, want 0: no draw is below it", ratio, th)
		}
	}
}

// checkMask fails unless mask has bit i set for exactly the draws of
// want, n Float64 calls, that fall below ratio.
func checkMask(t *testing.T, mask uint64, n int, want func() float64, ratio float64, what string) {
	t.Helper()
	for i := 0; i < 64; i++ {
		below := i < n && want() < ratio
		if got := mask>>i&1 == 1; got != below {
			t.Fatalf("%s: bit %d of %d is %v, Float64 < %v says %v", what, i, n, got, ratio, below)
		}
	}
}

// TestBelowMaskMatchesFloat64 holds BelowMask to Float64 < ratio over
// the lazy pass, the register's wrap and masks of every width.
func TestBelowMaskMatchesFloat64(t *testing.T) {
	for _, seed := range testSeeds()[:40] {
		for _, ratio := range maskRatios {
			got, want := NewSource(seed), rand.New(rand.NewSource(seed))
			th := DrawThreshold(ratio)
			for n := 0; n <= 64; n++ {
				checkMask(t, got.BelowMask(th, n), n, want.Float64, ratio, fmt.Sprintf("seed %d, ratio %v", seed, ratio))
			}
			if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d, ratio %v: Float64 after the masks = %v, math/rand %v", seed, ratio, g, w)
			}
		}
	}
}

// plantRedraw sets s's register so that its k-th next draw (k < 273,
// so no draw before it reads or writes the words it adds) returns x.
func plantRedraw(s *Source, k int, x int64) {
	tap, feed := s.tap, s.feed
	for i := 0; i < k; i++ {
		if tap--; tap < 0 {
			tap += rngLen
		}
		if feed--; feed < 0 {
			feed += rngLen
		}
	}
	s.vec[feed] = x - s.vec[tap]
}

// TestBelowMaskRedrawsLikeFloat64 plants draws whose Int63 lands on
// both sides of 2^63-512, where Float64's scaling starts to round to 1
// and it draws again: BelowMask must skip exactly the draws Float64
// skips, so the masks agree and both sources end on the same draw; and
// so must Below, drawn one at a time over the same planted register.
// After 2·607 draws tap is 0, so the first planted draw wraps it and
// goes through Int63; the later ones fall in a wrap-free stretch.
func TestBelowMaskRedrawsLikeFloat64(t *testing.T) {
	for _, x := range []int64{redrawFrom - 1, redrawFrom, redrawFrom + 1, math.MaxInt64, -1, math.MinInt64 + redrawFrom} {
		for _, k := range []int{1, 2, 17, 63, 64, 65} {
			for _, ratio := range maskRatios {
				s := NewSource(int64(k) + 3)
				for i := 0; i < 2*rngLen; i++ {
					s.Uint64()
				}
				plantRedraw(s, k, x)
				ref, vec := *s, *s.vec
				ref.vec = &vec
				one, oneRef, vec1, vec2 := *s, *s, *s.vec, *s.vec
				one.vec, oneRef.vec = &vec1, &vec2
				for i := 0; i < 70; i++ {
					if g, w := one.Below(DrawThreshold(ratio)), oneRef.Float64() < ratio; g != w {
						t.Fatalf("draw %d at %#x, ratio %v: Below draw %d is %v, Float64 < ratio says %v", k, x, ratio, i, g, w)
					}
				}
				if g, w := one.Uint64(), oneRef.Uint64(); g != w {
					t.Fatalf("draw %d at %#x, ratio %v: the sources part after the Below draws: %#x, Float64's %#x", k, x, ratio, g, w)
				}
				what := fmt.Sprintf("draw %d at %#x, ratio %v", k, x, ratio)
				th := DrawThreshold(ratio)
				checkMask(t, s.BelowMask(th, 64), 64, ref.Float64, ratio, what)
				checkMask(t, s.BelowMask(th, 5), 5, ref.Float64, ratio, what+", next mask")
				if g, w := s.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("%s: the sources part after the masks: %#x, Float64's %#x", what, g, w)
				}
			}
		}
	}
}

// FuzzSourceMatchesMathRand draws draws values, re-seeds and draws
// again. Its seed corpus stops on both sides of each change of state:
// the register's allocation (16, 17), the first tap that an earlier
// draw wrote (273, 274) and the end of the lazy pass (334, 335). Then it
// re-seeds once more and interleaves BelowMask, of widths up to 64 that
// masks picks, with Float64 and up to seven Below draws, all held to
// math/rand's Float64, at a ratio from maskRatios or the fuzzed one
// masks spells.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add(seed, uint16(i*97), edgeSeeds[len(edgeSeeds)-1-i], uint64(i)*0x9E3779B97F4A7C15)
	}
	for i, draws := range []uint16{0, 1, rngBatch, rngBatch + 1, rngTap, rngTap + 1, rngFeed, rngFeed + 1} {
		f.Add(int64(i)+1, draws, int64(draws)+7, uint64(draws)<<8|uint64(i))
	}
	f.Add(int64(7), uint16(65535), int64(1), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, reseed int64, masks uint64) {
		s := NewSource(seed)
		sameDraws(t, s, mathRand(seed), int(draws), fmt.Sprint("seed ", seed))
		s.Seed(reseed)
		sameDraws(t, s, mathRand(reseed), int(draws)%1300+1, fmt.Sprintf("seed %d reseeded to %d after %d draws", seed, reseed, draws))

		ratio := float64(masks>>11)/(1<<53) + 0x1p-60
		if pick := int(draws) % (len(maskRatios) + 1); pick < len(maskRatios) {
			ratio = maskRatios[pick]
		}
		th := DrawThreshold(ratio)
		s.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for round := 0; round < 48; round++ {
			n := int(masks>>(round%8*8)&0xff) % 65
			what := fmt.Sprintf("seed %d, ratio %v, round %d", seed, ratio, round)
			checkMask(t, s.BelowMask(th, n), n, want.Float64, ratio, what)
			if g, w := s.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: Float64 after the mask = %v, math/rand %v", what, g, w)
			}
			for i := 0; i < int(masks>>(round%8*8+3)&7); i++ {
				if g, w := s.Below(th), want.Float64() < ratio; g != w {
					t.Fatalf("%s: Below draw %d is %v, Float64 < ratio says %v", what, i, g, w)
				}
			}
		}
	})
}
