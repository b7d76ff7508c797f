package stats

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// shippedZipfs are the (s, n) the tree's generators draw from: the
// workload defaults (AccessLog 1.4/400 and 1.2/20 000, EditLog 1.3/40,
// 1.1/5000 and 1.2/20 000, WebLog 1.1/3000 and 1.3/2000, WikiDump
// 1.3/20 000), the fallbacks a generator takes for an unset universe
// (10, 100 and WikiDump's 1000), the job service's inputs (AccessLog
// 1.4/50 and 1.2/2000, WebLog 1.1/200 and 1.3/2000, WikiDump 1.3/2000),
// a clamped exponent and the degenerate universes 0, 1 and 2.
var shippedZipfs = []struct {
	s float64
	n uint64
}{
	{1.4, 400}, {1.2, 20000}, {1.3, 40}, {1.1, 5000}, {1.1, 3000}, {1.3, 2000}, {1.3, 20000},
	{1.4, 10}, {1.2, 100}, {1.3, 10}, {1.1, 100}, {1.3, 1000},
	{1.4, 50}, {1.2, 2000}, {1.1, 200},
	{0.5, 10}, {1, 1000},
	{1.2, 0}, {1.2, 1}, {1.2, 2},
}

// mathRandZipf is the generator NewZipf reproduces, on its own source.
func mathRandZipf(seed int64, s float64, n uint64) (*rand.Rand, *rand.Zipf) {
	if s <= 1 {
		s = 1.0001
	}
	if n == 0 {
		n = 1
	}
	r := rand.New(rand.NewSource(seed))
	return r, rand.NewZipf(r, s, 1, n-1)
}

// TestZipfMatchesMathRand draws a million ranks from every shipped
// (s, n) on three seeds beside rand.NewZipf, then checks that both
// sources stand at the same point of their streams. Off amd64 the
// compiler may fuse math/rand's hxm + r*hx0minusHxm into one
// instruction, and math/rand itself then rounds differently from the
// transcription, which rounds as amd64 does.
func TestZipfMatchesMathRand(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math/rand's Zipf arithmetic may be fused on", runtime.GOARCH)
	}
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	for _, c := range shippedZipfs {
		for _, seed := range []int64{1, 7, 20240531} {
			got := NewRand(seed)
			z := NewZipf(got, c.s, c.n)
			want, wz := mathRandZipf(seed, c.s, c.n)
			for i := 0; i < draws; i++ {
				if g, w := z.Next(), wz.Uint64()+1; g != w {
					t.Fatalf("s %v, n %d, seed %d, draw %d: rank %d, math/rand %d", c.s, c.n, seed, i, g, w)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("s %v, n %d, seed %d: Int63 after the ranks = %d, math/rand %d", c.s, c.n, seed, g, w)
			}
		}
	}
}

// tableAgrees fails t unless tb answers r as the exact round does, or
// leaves it to the round.
func tableAgrees(t *testing.T, tb *zipfTable, r float64) {
	t.Helper()
	if r < 0 || r >= 1 {
		return
	}
	if got := tb.lookup(r); got != zipfExact {
		if want := tb.code(r); got != want {
			t.Fatalf("s %v, n %v: table says %d at r = %v (%#x), the round %d", tb.q, tb.imax+1, got, r, math.Float64bits(r), want)
		}
	}
}

// near returns r and the floats within ulps of it on either side.
func near(r float64, ulps int) []float64 {
	out := []float64{r}
	lo, hi := r, r
	for i := 0; i < ulps; i++ {
		lo, hi = math.Nextafter(lo, -1), math.Nextafter(hi, 2)
		out = append(out, lo, hi)
	}
	return out
}

// TestZipfTableAtBreakpoints holds every shipped table to the exact
// round where float error could move an outcome: at each breakpoint,
// band edge and piece start, and where the round's computed outcome
// actually switches inside a band (found by bisection), with a few
// floats either side of each.
func TestZipfTableAtBreakpoints(t *testing.T) {
	for _, c := range shippedZipfs {
		tb := NewZipf(NewRand(1), c.s, c.n).t
		probes := append([]float64{}, tb.starts...)
		for _, b := range tb.breakpoints() {
			lo, hi := max(b-zipfBand, 0), math.Nextafter(min(b+zipfBand, 1), 0)
			probes = append(probes, b, lo, hi)
			for cl := tb.code(lo); tb.code(hi) != cl && math.Nextafter(lo, 1) < hi; {
				mid := lo + (hi-lo)/2
				if !(lo < mid && mid < hi) {
					mid = math.Nextafter(lo, 1)
				}
				if tb.code(mid) == cl {
					lo = mid
				} else {
					hi = mid
				}
			}
			for _, r := range near(hi, 8) {
				tableAgrees(t, tb, r)
			}
		}
		for _, p := range probes {
			for _, r := range near(p, 2) {
				tableAgrees(t, tb, r)
			}
		}
	}
}

// TestZipfTableLeavesLittleToTheRound bounds the share of draws the
// table leaves to the exact round: every band, and nothing between
// bands, for each shipped (s, n).
func TestZipfTableLeavesLittleToTheRound(t *testing.T) {
	for _, c := range shippedZipfs {
		tb := NewZipf(NewRand(1), c.s, c.n).t
		exact := 0.0
		for i, o := range tb.outs {
			if o == zipfExact {
				exact += min(tb.starts[i+1], 1) - tb.starts[i]
			}
		}
		if bound := float64(len(tb.breakpoints())) * 2 * zipfBand; exact > bound {
			t.Errorf("s %v, n %d: %.3g of r-space left to the round, the bands cover %.3g", c.s, c.n, exact, bound)
		}
	}
}

// zipfGrid is the (s, n) grid FuzzZipfTable picks from.
var (
	zipfGridS = []float64{1.0001, 1.05, 1.1, 1.2, 1.3, 1.4, 1.7, 2, 3.5}
	zipfGridN = []uint64{1, 2, 3, 10, 40, 200, 2000, 20000}
)

// FuzzZipfTable holds the table lookup to the exact round on a draw
// (an Int63 scaled as Float64 scales it) over a grid of (s, n). The
// corpus starts at breakpoints and band edges, a few ulps either side.
func FuzzZipfTable(f *testing.F) {
	for si, s := range zipfGridS {
		for ni, n := range zipfGridN {
			p := newZipfParams(s, n)
			bs := p.breakpoints()
			if len(bs) == 0 {
				continue
			}
			b := bs[(7*si+3*ni)%len(bs)]
			for _, edge := range []float64{b, b - zipfBand, b + zipfBand} {
				for _, r := range near(edge, 1) {
					if r >= 0 && r < 1 {
						f.Add(uint64(r*(1<<63)), uint8(si), uint8(ni))
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, x uint64, si, ni uint8) {
		r := float64(x&(1<<63-1)) / (1 << 63)
		s, n := zipfGridS[int(si)%len(zipfGridS)], zipfGridN[int(ni)%len(zipfGridN)]
		tableAgrees(t, zipfTableFor(s, n), r)
	})
}

// TestZipfTableShared builds one (s, n) from several goroutines at
// once: every Zipf ends up on the one stored table, and the ranks do not
// depend on which goroutine built it.
func TestZipfTableShared(t *testing.T) {
	const s, n = 1.25, 777
	tables := make([]*zipfTable, 4)
	ranks := make([]uint64, len(tables))
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := NewZipf(NewRand(3), s, n)
			tables[i] = z.t
			for j := 0; j < 1000; j++ {
				ranks[i] = ranks[i]*31 + z.Next()
			}
		}()
	}
	wg.Wait()
	for i := range tables {
		if tables[i] != tables[0] || ranks[i] != ranks[0] {
			t.Fatalf("goroutine %d: table %p, rank hash %d; goroutine 0: %p, %d", i, tables[i], ranks[i], tables[0], ranks[0])
		}
	}
}

// TestNewZipfAllocs is the constructor's allocation contract: once its
// table exists, a Zipf costs nothing but its draws.
func TestNewZipfAllocs(t *testing.T) {
	r := NewRand(1)
	var sink uint64
	NewZipf(r, 1.3, 2000)
	if a := testing.AllocsPerRun(200, func() {
		z := NewZipf(r, 1.3, 2000)
		sink += z.Next()
	}); a != 0 {
		t.Fatalf("NewZipf + Next over an existing table: %v allocations, want 0", a)
	}
	_ = sink
}
