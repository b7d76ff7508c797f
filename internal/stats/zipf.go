package stats

import (
	"math"
	"math/rand"
	"slices"
)

// Zipf draws ranks in [1, n] with P(rank = k) proportional to 1/k^s
// (s > 1). Its draws are those of rand.NewZipf(r, s, 1, n-1).Uint64()+1
// bit for bit, and it leaves r's stream where math/rand leaves it.
//
// math/rand's generator is Hörmann and Derflinger's rejection-inversion:
// each round draws one uniform r and either accepts a rank or rejects
// and draws again, and what a round does is a function of r alone
// (outcome). That function is piecewise constant in r, so Next looks r
// up in a table of its pieces, built once per (s, n) for the process,
// and runs the round's arithmetic only where the table cannot answer.
// DESIGN.md, "Zipf ranks from an outcome table".
type Zipf struct {
	r *rand.Rand
	t *zipfTable
}

// NewZipf constructs a Zipf sampler over {1, ..., n} with exponent s.
// Exponents at or below 1 are clamped slightly above 1, which keeps the
// heavy tail the popularity workloads need while staying in the
// generator's supported range. Once the table for (s, n) exists it
// allocates nothing.
func NewZipf(r *rand.Rand, s float64, n uint64) Zipf {
	if s <= 1 {
		s = zipfMinTableS
	}
	if n == 0 {
		n = 1
	}
	return Zipf{r: r, t: zipfTableFor(s, n)}
}

// Next returns the next rank in [1, n].
//
//approx:hotpath
func (z *Zipf) Next() uint64 {
	t := z.t
	for {
		r := z.r.Float64()
		o := t.lookup(r)
		if o >= 0 {
			return uint64(o) + 1
		}
		if o == zipfReject {
			continue
		}
		if k, ok := t.outcome(r); ok {
			return uint64(k) + 1
		}
	}
}

// zipfParams are the fields rand.NewZipf(r, s, 1, n-1) computes, and
// h, hinv and outcome transcribe its arithmetic at v = 1. A product that
// feeds an add is rounded on its own (float64(a*b)), as amd64 rounds it:
// the spec lets other targets fuse the two into one instruction, which
// would move a rank.
type zipfParams struct {
	imax, q, oneminusQ, oneminusQinv, hxm, hx0minusHxm, s float64
}

func newZipfParams(s float64, n uint64) zipfParams {
	p := zipfParams{imax: float64(n - 1), q: s, oneminusQ: 1 - s}
	p.oneminusQinv = 1 / p.oneminusQ
	p.hxm = p.h(p.imax + 0.5)
	p.hx0minusHxm = p.h(0.5) - math.Exp(math.Log(1)*(-p.q)) - p.hxm
	p.s = 1 - p.hinv(p.h(1.5)-math.Exp(-p.q*math.Log(1+1.0)))
	return p
}

func (p *zipfParams) h(x float64) float64 {
	return float64(math.Exp(p.oneminusQ*math.Log(1+x)) * p.oneminusQinv)
}

func (p *zipfParams) hinv(x float64) float64 {
	return math.Exp(p.oneminusQinv*math.Log(p.oneminusQ*x)) - 1
}

// outcome is one round of math/rand's loop on the uniform r: the rank k
// (from 0) it lands on, and whether it accepts it.
func (p *zipfParams) outcome(r float64) (float64, bool) {
	ur := p.hxm + float64(r*p.hx0minusHxm)
	x := p.hinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= p.s {
		return k, true
	}
	return k, ur >= p.h(k+0.5)-math.Exp(-math.Log(k+1)*p.q)
}

// breakpoints returns the r at which a round's outcome can change, in
// exact arithmetic: per rank k, where x = hinv(ur) crosses k+0.5 (the
// rank changes), where it crosses k-s (the first test flips) and where
// ur crosses the second test's bound. ur falls as r grows, so r is
// (u - hxm) / hx0minusHxm for a point u of ur-space. Sorted, and only
// those within a band of [0, 1).
func (p *zipfParams) breakpoints() []float64 {
	last := int(p.imax) + 1
	bs := make([]float64, 0, 3*(last+1))
	for k := 0; k <= last; k++ {
		kf := float64(k)
		hk := p.h(kf + 0.5)
		for _, u := range [3]float64{hk, p.h(kf - p.s), hk - math.Exp(-math.Log(kf+1)*p.q)} {
			if b := (u - p.hxm) / p.hx0minusHxm; b > -zipfBand && b < 1+zipfBand {
				bs = append(bs, b)
			}
		}
	}
	slices.Sort(bs)
	return bs
}

// A zipfTable holds the parameters of one (s, n) and, for n up to
// zipfTableMaxN, its outcome table (outcome.go): a piece's code is the
// rank every round in it accepts, zipfReject when every round in it
// rejects, or zipfExact when Next must run the round. A draw r's guide
// slot is int(r·len(guide)), so a lookup steps past
// pieces/len(guide) < 1 starts on average. Every Zipf of its (s, n)
// shares it.
type zipfTable struct {
	zipfParams
	outcomeTable
	slots float64 // len(guide)
}

const (
	zipfReject = -1
	zipfExact  = outcomeExact

	// zipfBand is the half-width of the band around each breakpoint that
	// the table leaves to the exact round. The computed outcome switches
	// within float error of the breakpoint, so the band holds every
	// switch and between bands the outcome is that of the exact function.
	// hinv scales the error of its Log by 1/(s-1): the switches measure
	// at most 4e-13 from their breakpoints in r-space at s = 1.0001 and
	// 6e-16 at s >= 1.1, against a band of 2.3e-10.
	zipfBand = 0x1p-32

	// A table covers at most zipfTableMaxN ranks, about 70 B a rank (the
	// generators' largest universe is 20 000), and exponents from
	// zipfMinTableS up, where the error above is that far inside the
	// band. NewZipf clamps an exponent at or below 1 to zipfMinTableS.
	zipfTableMaxN = 1 << 16
	zipfMinTableS = 1.0001
)

type zipfKey struct {
	s float64
	n uint64
}

var zipfTables = tableCache[zipfKey, zipfTable]{build: newZipfTable}

func zipfTableFor(s float64, n uint64) *zipfTable {
	return zipfTables.get(zipfKey{s, n})
}

// newZipfTable builds k's table: every breakpoint gets a band of
// zipfBand (outcomeTable.cut). Above zipfTableMaxN ranks or below
// zipfMinTableS the table is one zipfExact piece.
func newZipfTable(k zipfKey) *zipfTable {
	t := &zipfTable{zipfParams: newZipfParams(k.s, k.n)}
	if k.n > zipfTableMaxN || k.s < zipfMinTableS {
		t.cut(0, nil, nil, func(float64) int32 { return zipfExact })
	} else {
		t.cut(0, t.breakpoints(), func(float64) float64 { return zipfBand }, t.code)
	}
	g := 1
	for g < len(t.outs) {
		g *= 2
	}
	t.slots = float64(g)
	t.fillGuide(g, func(slot int) float64 { return float64(slot) / t.slots })
	return t
}

// code is the table's code for one round on r.
func (t *zipfTable) code(r float64) int32 {
	k, ok := t.outcome(r)
	switch {
	case !ok:
		return zipfReject
	case k >= 0 && k <= t.imax+1:
		return int32(k)
	}
	return zipfExact
}

// lookup returns the code of the piece holding r, 0 <= r < 1.
//
//approx:hotpath
func (t *zipfTable) lookup(r float64) int32 {
	return t.from(t.guide[int(r*t.slots)], r)
}
