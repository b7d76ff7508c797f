package stats

import (
	"math"
	"sync"
	"testing"
)

// shippedParetos are the (xm, alpha, limit) the tree's generators draw
// through ParetoInt: the access log's bytes (800, 1.4, 5 000 000), the
// web log's (500, 1.5, 2 000 000) and the wiki dump's link counts
// (MeanLinks/2, 1.5, 60) at every MeanLinks the tree sets (8 in the
// defaults, datagen and the job service; 4, 5 and 6 in tests) and the
// generator's fallback 5. Then edges: a cap below xm, a cap of 0, a
// negative cap, a table too large to build and a shape so small the
// smallest draws overflow int.
var shippedParetos = []struct {
	xm, alpha float64
	limit     int
}{
	{800, 1.4, 5_000_000}, {500, 1.5, 2_000_000},
	{4, 1.5, 60}, {2.5, 1.5, 60}, {2, 1.5, 60}, {3, 1.5, 60},
	{10, 2, 5}, {10, 2, 0}, {10, 2, -1}, {1e6, 1.3, 1 << 40}, {3, 0.05, 1 << 20},
}

// TestParetoIntMatchesPareto draws a million sizes from every shipped
// (xm, alpha, limit) on three seeds beside the capped expression the
// generators used to write out, then checks that both sources stand at
// the same point of their streams.
func TestParetoIntMatchesPareto(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	for _, c := range shippedParetos {
		for _, seed := range []int64{1, 7, 20240531} {
			got, want := NewRand(seed), NewRand(seed)
			p := NewParetoInt(got, c.xm, c.alpha, c.limit)
			for i := 0; i < draws; i++ {
				if g, w := p.Next(), min(int(Pareto(want, c.xm, c.alpha)), c.limit); g != w {
					t.Fatalf("(%v, %v, %d), seed %d, draw %d: size %d, Pareto %d", c.xm, c.alpha, c.limit, seed, i, g, w)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("(%v, %v, %d), seed %d: Int63 after the sizes = %d, Pareto's %d", c.xm, c.alpha, c.limit, seed, g, w)
			}
		}
	}
}

// paretoAgrees fails t unless p's table answers u as the arithmetic
// does, or leaves it to the arithmetic.
func paretoAgrees(t *testing.T, p *ParetoInt, u float64) {
	t.Helper()
	if u <= 0 || u >= 1 {
		return
	}
	if got := p.t.lookup(u); got != outcomeExact {
		if want := p.exact(u); int(got) != want {
			t.Fatalf("(%v, %v, %d): table says %d at u = %v (%#x), the arithmetic %d", p.xm, 1/p.inv, p.limit, got, u, math.Float64bits(u), want)
		}
	}
}

// paretoBreaks returns p's breakpoints (xm/j)^alpha from j = ceil(xm)
// down to the table's head or the cap, or past the most a table holds.
func paretoBreaks(p *ParetoInt) []float64 {
	var bs []float64
	for j := int(math.Ceil(p.xm)); j <= p.limit && len(bs) <= paretoMaxBreaks; j++ {
		b := math.Pow(p.xm/float64(j), 1/p.inv)
		bs = append(bs, b)
		if b < paretoHead {
			break
		}
	}
	return bs
}

// TestParetoTableAtBreakpoints holds every shipped table to the
// arithmetic within 2 ulps of each breakpoint, band edge and piece
// start, and of the head.
func TestParetoTableAtBreakpoints(t *testing.T) {
	for _, c := range shippedParetos {
		p := NewParetoInt(NewRand(1), c.xm, c.alpha, c.limit)
		probes := append([]float64{paretoHead, 0x1p-53}, p.t.starts...)
		for _, b := range paretoBreaks(&p) {
			probes = append(probes, b, b*(1-paretoBand), b*(1+paretoBand))
		}
		for _, u := range probes {
			for _, v := range near(u, 2) {
				paretoAgrees(t, &p, v)
			}
		}
	}
}

// TestParetoTableLeavesLittleToTheArithmetic bounds the share of draws
// the table leaves to the arithmetic: every band, and below the head
// unless the cap binds above it, and nothing between bands.
func TestParetoTableLeavesLittleToTheArithmetic(t *testing.T) {
	for _, c := range shippedParetos {
		p := NewParetoInt(NewRand(1), c.xm, c.alpha, c.limit)
		tb := p.t
		if tb == paretoNoTable {
			continue
		}
		exact, bound := 0.0, 0.0
		if tb.below == outcomeExact {
			exact, bound = tb.head, tb.head
		}
		for i, o := range tb.outs {
			if o == outcomeExact {
				exact += min(tb.starts[i+1], 1) - tb.starts[i]
			}
		}
		for _, b := range paretoBreaks(&p) {
			bound += 2 * b * paretoBand
		}
		if exact > bound {
			t.Errorf("(%v, %v, %d): %.3g of u-space left to the arithmetic, the bands and head cover %.3g", c.xm, c.alpha, c.limit, exact, bound)
		}
	}
}

// paretoGrid is the (xm, alpha, limit) grid FuzzParetoTable picks from.
var (
	paretoGridXm    = []float64{0.5, 2.5, 4, 37.25, 800}
	paretoGridAlpha = []float64{0.7, 1.1, 1.5, 2.5}
	paretoGridLimit = []int{0, 60, 5_000_000}
)

// FuzzParetoTable holds the table lookup to the arithmetic on a draw
// (an Int63 scaled as Float64 scales it) over a grid of (xm, alpha,
// limit). The corpus starts at breakpoints and band edges, an ulp
// either side.
func FuzzParetoTable(f *testing.F) {
	for xi, xm := range paretoGridXm {
		for ai, alpha := range paretoGridAlpha {
			for li, limit := range paretoGridLimit {
				p := ParetoInt{xm: xm, inv: 1 / alpha, limit: limit}
				bs := paretoBreaks(&p)
				if len(bs) == 0 {
					continue
				}
				b := bs[(7*xi+3*ai+li)%len(bs)]
				for _, edge := range []float64{b, b * (1 - paretoBand), b * (1 + paretoBand)} {
					for _, u := range near(edge, 1) {
						if u > 0 && u < 1 {
							f.Add(uint64(u*(1<<63)), uint8(xi), uint8(ai), uint8(li))
						}
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, x uint64, xi, ai, li uint8) {
		u := float64(x&(1<<63-1)) / (1 << 63)
		p := NewParetoInt(nil, paretoGridXm[int(xi)%len(paretoGridXm)],
			paretoGridAlpha[int(ai)%len(paretoGridAlpha)], paretoGridLimit[int(li)%len(paretoGridLimit)])
		paretoAgrees(t, &p, u)
	})
}

// TestParetoTableShared builds one (xm, alpha, limit) from several
// goroutines at once: every ParetoInt ends up on the one stored table,
// and the sizes do not depend on which goroutine built it.
func TestParetoTableShared(t *testing.T) {
	const xm, alpha, limit = 321.5, 1.45, 1_000_000
	tables := make([]*paretoTable, 4)
	sums := make([]int, len(tables))
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewParetoInt(NewRand(3), xm, alpha, limit)
			tables[i] = p.t
			for j := 0; j < 1000; j++ {
				sums[i] = sums[i]*31 + p.Next()
			}
		}()
	}
	wg.Wait()
	for i := range tables {
		if tables[i] != tables[0] || sums[i] != sums[0] {
			t.Fatalf("goroutine %d: table %p, size hash %d; goroutine 0: %p, %d", i, tables[i], sums[i], tables[0], sums[0])
		}
	}
}

// TestNewParetoIntAllocs is the constructor's allocation contract: once
// its table exists, a ParetoInt costs nothing but its draws.
func TestNewParetoIntAllocs(t *testing.T) {
	r := NewRand(1)
	sink := 0
	NewParetoInt(r, 500, 1.5, 2_000_000)
	if a := testing.AllocsPerRun(200, func() {
		p := NewParetoInt(r, 500, 1.5, 2_000_000)
		sink += p.Next()
	}); a != 0 {
		t.Fatalf("NewParetoInt + Next over an existing table: %v allocations, want 0", a)
	}
	_ = sink
}
