package stats

import (
	"math"
	"math/rand"
	"slices"
)

// ParetoInt draws truncated, capped Pareto sizes: Next returns
// min(int(Pareto(r, xm, alpha)), limit) bit for bit, from the same
// Float64 draws (the redraw of 0 included), and leaves r's stream where
// Pareto leaves it.
//
// That value is a step function of the uniform draw u, so Next looks u
// up in a table of its steps, built once per (xm, alpha, limit) for the
// process, and runs Pareto's arithmetic only where the table cannot
// answer. DESIGN.md, "Pareto sizes from an outcome table".
type ParetoInt struct {
	r     *rand.Rand
	t     *paretoTable
	xm    float64
	inv   float64 // 1/alpha, as Pareto computes it
	limit int
}

// NewParetoInt constructs a ParetoInt with minimum xm, shape alpha and
// cap limit. Once the table for (xm, alpha, limit) exists it allocates
// nothing.
func NewParetoInt(r *rand.Rand, xm, alpha float64, limit int) ParetoInt {
	p := ParetoInt{r: r, t: paretoNoTable, xm: xm, inv: 1 / alpha, limit: limit}
	if xm > 0 && xm < paretoMaxXm && alpha > 0 && alpha <= math.MaxFloat64 && limit >= 0 {
		p.t = paretoTables.get(paretoKey{xm, alpha, limit})
	}
	return p
}

// Next returns the next size.
//
//approx:hotpath
func (p *ParetoInt) Next() int {
	u := p.r.Float64()
	for u == 0 {
		u = p.r.Float64()
	}
	if o := p.t.lookup(u); o >= 0 {
		return int(o)
	}
	return p.exact(u)
}

// exact is Pareto's arithmetic on u, truncated and capped.
func (p *ParetoInt) exact(u float64) int {
	return min(int(p.xm/math.Pow(u, p.inv)), p.limit)
}

// A paretoTable is the outcome table (outcome.go) of one (xm, alpha,
// limit) over [head, 1): a piece's code is the size every u in it
// draws, or outcomeExact. A draw below head gets below, which is the
// cap where the cap binds above head and outcomeExact otherwise. Pieces
// narrow toward u = 0 as the sizes grow, so the guide is indexed by the
// draw's top bits, paretoGuideBits of mantissa a binade, not linearly.
type paretoTable struct {
	outcomeTable
	head  float64
	below int32
	base  uint64 // Float64bits(head) >> paretoGuideShift
}

const (
	// paretoHead is the table's head cutoff: sizes from draws below it
	// grow too fast to tabulate (2^16 breakpoints at (800, 1.4) would
	// reach down to 2.1e-3 only), so they run the arithmetic, one draw
	// in 64, unless the cap binds above the cutoff.
	paretoHead = 0x1p-6

	// paretoBand is the half-width of the band around each breakpoint
	// b, relative to b, that the table leaves to the arithmetic. The
	// computed size switches within a few ulps of b (Pow's error,
	// scaled by alpha), far inside the band.
	paretoBand = 0x1p-32

	// The guide has 2^paretoGuideBits slots a binade: a slot is a draw's
	// float bits shifted right by paretoGuideShift.
	paretoGuideBits  = 13
	paretoGuideShift = 52 - paretoGuideBits

	// A table has at most paretoMaxBreaks breakpoints, two 12 B pieces
	// each beside the guide's 192 KB; larger ones, and an xm from
	// paretoMaxXm up, where sizes outgrow a piece's int32 code, get no
	// table and every draw runs the arithmetic.
	paretoMaxBreaks = 1 << 16
	paretoMaxXm     = 1 << 30
)

// paretoNoTable sends every draw to the arithmetic.
var paretoNoTable = &paretoTable{head: 2, below: outcomeExact}

type paretoKey struct {
	xm, alpha float64
	limit     int
}

var paretoTables = tableCache[paretoKey, paretoTable]{build: newParetoTable}

// newParetoTable builds k's table. The breakpoints are where the exact
// size steps, b_j = (xm/j)^alpha for sizes j from ceil(xm) (b = 1 when
// xm is an integer) up to the cap or to the first below head; each gets
// a band of b·paretoBand (outcomeTable.cut).
func newParetoTable(k paretoKey) *paretoTable {
	p := ParetoInt{xm: k.xm, inv: 1 / k.alpha, limit: k.limit}
	var bs []float64
	j := int(math.Ceil(k.xm))
	for ; j <= k.limit; j++ {
		if len(bs) == paretoMaxBreaks {
			return paretoNoTable
		}
		b := math.Pow(k.xm/float64(j), k.alpha)
		bs = append(bs, b)
		if b < paretoHead {
			break
		}
	}
	slices.Reverse(bs)
	t := &paretoTable{head: paretoHead, below: outcomeExact, base: math.Float64bits(paretoHead) >> paretoGuideShift}
	// The cap binds above head when the loop ran past it, the cap's own
	// band lies above head, and the smallest draw, 2^-53, still sizes
	// far inside int (int of a larger float is not the cap).
	if j > k.limit && k.limit >= 0 && k.limit <= math.MaxInt32 &&
		math.Pow(k.xm/float64(k.limit), k.alpha)*(1-paretoBand) >= paretoHead &&
		k.xm/math.Pow(0x1p-53, p.inv) < 0x1p62 {
		t.below = int32(k.limit)
	}
	t.cut(paretoHead, bs, func(b float64) float64 { return b * paretoBand }, func(u float64) int32 {
		if s := p.exact(u); s >= 0 && s <= math.MaxInt32 {
			return int32(s)
		}
		return outcomeExact
	})
	slots := int(math.Float64bits(1)>>paretoGuideShift - t.base)
	t.fillGuide(slots, func(slot int) float64 {
		return math.Float64frombits((t.base + uint64(slot)) << paretoGuideShift)
	})
	return t
}

// lookup returns the code for the draw u, 0 < u < 1.
//
//approx:hotpath
func (t *paretoTable) lookup(u float64) int32 {
	if u < t.head {
		return t.below
	}
	return t.from(t.guide[math.Float64bits(u)>>paretoGuideShift-t.base], u)
}
