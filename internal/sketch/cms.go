package sketch

import "math"

// CMS is a Count-Min sketch (Cormode & Muthukrishnan 2005): a depth×width
// grid of uint64 counters. Count(x) never underestimates the true count
// and overestimates by at most ε·W with probability ≥ 1−δ, where
// ε = e/width, δ = e^−depth, and W is the total folded weight.
//
// Counters are integers, not floats: integer addition is associative, so
// merged counters — and the serialized bytes — are bit-identical for any
// merge order. The wire form stores counters as varints, which is what
// keeps a lightly-loaded task sketch small on the shuffle.
type CMS struct {
	width  uint32
	depth  uint32
	seed   uint64
	weight uint64 // total folded count W
	counts []uint64
}

// cms size bounds keep decode allocations sane.
const (
	maxCMSWidth = 1 << 20
	maxCMSDepth = 16
)

// NewCMS builds an empty width×depth Count-Min sketch.
func NewCMS(width, depth uint32, seed uint64) (*CMS, error) {
	if width < 2 || width > maxCMSWidth || depth < 1 || depth > maxCMSDepth {
		return nil, ErrBadParams
	}
	return &CMS{width: width, depth: depth, seed: seed, counts: make([]uint64, int(width)*int(depth))}, nil
}

// Kind implements Sketch.
func (c *CMS) Kind() Kind { return KindCMS }

// Fold implements Sketch: adds count to one counter per row.
//
//approx:hotpath
func (c *CMS) Fold(element string, count uint64) {
	if count == 0 {
		return
	}
	c.foldHash(hash64(c.seed, element), count)
}

// foldHash adds count to the cell of element hash h in every row and
// returns the smallest updated cell, which is countHash of that element
// after the fold: TopK.Fold gets its estimate without a second hash.
// Row r's cell is doubleHash(h, r, width), walked incrementally.
//
//approx:hotpath
func (c *CMS) foldHash(h, count uint64) uint64 {
	c.weight += count
	h2, w := (h&0xffffffff)|1, uint64(c.width)
	min := ^uint64(0)
	for x, row := h>>32, c.counts; len(row) > 0; x, row = x+h2, row[w:] {
		cell := &row[x%w]
		*cell += count
		if *cell < min {
			min = *cell
		}
	}
	return min
}

// countHash returns the (over-)estimate of the folded weight of the
// element whose hash64 is h: the minimum counter across rows.
//
//approx:hotpath
func (c *CMS) countHash(h uint64) uint64 {
	h2, w := (h&0xffffffff)|1, uint64(c.width)
	min := ^uint64(0)
	for x, row := h>>32, c.counts; len(row) > 0; x, row = x+h2, row[w:] {
		if v := row[x%w]; v < min {
			min = v
		}
	}
	return min
}

// Epsilon returns the relative overestimation factor e/width: Count
// exceeds the true count by at most Epsilon()·Weight() with probability
// at least Confidence().
func (c *CMS) Epsilon() float64 { return math.E / float64(c.width) }

// ErrBound returns the absolute overestimation bound ε·W.
func (c *CMS) ErrBound() float64 { return c.Epsilon() * float64(c.weight) }

// Confidence returns 1 − δ = 1 − e^−depth, the probability the ε·W
// bound holds for a single query.
func (c *CMS) Confidence() float64 { return 1 - math.Exp(-float64(c.depth)) }

// Merge implements Sketch: element-wise counter addition.
func (c *CMS) Merge(other Sketch) error {
	o, ok := other.(*CMS)
	if !ok || o.width != c.width || o.depth != c.depth || o.seed != c.seed {
		return ErrMismatch
	}
	c.weight += o.weight
	for i, v := range o.counts {
		c.counts[i] += v
	}
	return nil
}

// Clone implements Sketch.
func (c *CMS) Clone() Sketch {
	cp := *c
	cp.counts = append([]uint64(nil), c.counts...)
	return &cp
}

// Serialized layout (little-endian):
//
//	byte 0: kind (2)   byte 1: version
//	u32 width, u32 depth, u64 seed, uvarint weight,
//	then width·depth uvarint counters in row-major order.
//
// Counters are a pure function of the folded multiset (integer sums),
// so the varint stream is canonical.

// AppendBinary implements Sketch.
func (c *CMS) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(KindCMS), serialVersion)
	dst = appendU32(dst, c.width)
	dst = appendU32(dst, c.depth)
	dst = appendU64(dst, c.seed)
	dst = appendUvarint(dst, c.weight)
	for _, v := range c.counts {
		dst = appendUvarint(dst, v)
	}
	return dst
}

// SizeBytes implements Sketch.
func (c *CMS) SizeBytes() int {
	n := 2 + 4 + 4 + 8 + uvarintLen(c.weight)
	for _, v := range c.counts {
		n += uvarintLen(v)
	}
	return n
}

func decodeCMS(b []byte) (Sketch, error) {
	off := 2
	width, off, ok := readU32(b, off)
	if !ok {
		return nil, ErrCorrupt
	}
	depth, off, ok := readU32(b, off)
	if !ok {
		return nil, ErrCorrupt
	}
	seed, off, ok := readU64(b, off)
	if !ok {
		return nil, ErrCorrupt
	}
	c, err := NewCMS(width, depth, seed)
	if err != nil {
		return nil, ErrCorrupt
	}
	c.weight, off, ok = readUvarint(b, off)
	if !ok {
		return nil, ErrCorrupt
	}
	for i := range c.counts {
		c.counts[i], off, ok = readUvarint(b, off)
		if !ok {
			return nil, ErrCorrupt
		}
	}
	if off != len(b) {
		return nil, ErrCorrupt
	}
	return c, nil
}
