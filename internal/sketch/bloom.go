package sketch

import (
	"math"
	"math/bits"
)

// Bloom is a standard Bloom filter: mbits bits, hashes probes per
// element. A job reads it through CountEstimate, linear counting over
// the observed bit load. Merge is bit-OR — trivially commutative and
// associative, so the filter is merge-order independent by
// construction.
type Bloom struct {
	mbits  uint64
	hashes uint32
	seed   uint64
	words  []uint64
}

// bloom bounds keep decode allocations sane.
const (
	minBloomBits = 64
	maxBloomBits = 1 << 26
	maxBloomHash = 16
)

// NewBloom builds an empty filter with bits bits (rounded up to a
// multiple of 64) and the given probe count.
func NewBloom(bitCount uint64, hashes uint32, seed uint64) (*Bloom, error) {
	if bitCount < minBloomBits || bitCount > maxBloomBits || hashes < 1 || hashes > maxBloomHash {
		return nil, ErrBadParams
	}
	bitCount = (bitCount + 63) &^ 63
	return &Bloom{mbits: bitCount, hashes: hashes, seed: seed, words: make([]uint64, bitCount/64)}, nil
}

// Kind implements Sketch.
func (f *Bloom) Kind() Kind { return KindBloom }

// Fold implements Sketch: count is ignored (membership is
// presence-only).
//
//approx:hotpath
func (f *Bloom) Fold(element string, _ uint64) {
	h := hash64(f.seed, element)
	for i := uint64(0); i < uint64(f.hashes); i++ {
		bit := doubleHash(h, i, f.mbits)
		f.words[bit>>6] |= 1 << (bit & 63)
	}
}

// Ones returns the number of set bits.
func (f *Bloom) Ones() uint64 {
	n := uint64(0)
	for _, w := range f.words {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// CountEstimate returns the linear-counting estimate of the distinct
// elements folded: −(m/k)·ln(1 − ones/m) (Swamidass & Baldi 2007). A
// saturated filter returns +Inf.
func (f *Bloom) CountEstimate() float64 {
	ones := f.Ones()
	if ones >= f.mbits {
		return math.Inf(1)
	}
	m := float64(f.mbits)
	return -m / float64(f.hashes) * math.Log(1-float64(ones)/m)
}

// CountStdErr returns the approximate standard error of CountEstimate
// for the current load: sqrt(m·(e^λ − λ − 1))/k with λ = k·n/m
// (linear-counting variance, Whang et al. 1990).
func (f *Bloom) CountStdErr() float64 {
	m := float64(f.mbits)
	k := float64(f.hashes)
	n := f.CountEstimate()
	if math.IsInf(n, 1) {
		return math.Inf(1)
	}
	lambda := k * n / m
	v := m * (math.Exp(lambda) - lambda - 1)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v) / k
}

// Merge implements Sketch: bit-OR.
func (f *Bloom) Merge(other Sketch) error {
	o, ok := other.(*Bloom)
	if !ok || o.mbits != f.mbits || o.hashes != f.hashes || o.seed != f.seed {
		return ErrMismatch
	}
	for i, w := range o.words {
		f.words[i] |= w
	}
	return nil
}

// Clone implements Sketch.
func (f *Bloom) Clone() Sketch {
	c := *f
	c.words = append([]uint64(nil), f.words...)
	return &c
}

// Serialized layout:
//
//	byte 0: kind (4)   byte 1: version
//	u64 bits, u32 hashes, u64 seed, then bits/64 u64 words.

// AppendBinary implements Sketch.
func (f *Bloom) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(KindBloom), serialVersion)
	dst = appendU64(dst, f.mbits)
	dst = appendU32(dst, f.hashes)
	dst = appendU64(dst, f.seed)
	for _, w := range f.words {
		dst = appendU64(dst, w)
	}
	return dst
}

// SizeBytes implements Sketch.
func (f *Bloom) SizeBytes() int { return 2 + 8 + 4 + 8 + len(f.words)*8 }

func decodeBloom(b []byte) (Sketch, error) {
	off := 2
	bitCount, off, ok := readU64(b, off)
	if !ok {
		return nil, ErrCorrupt
	}
	hashes, off, ok := readU32(b, off)
	if !ok {
		return nil, ErrCorrupt
	}
	seed, off, ok := readU64(b, off)
	if !ok {
		return nil, ErrCorrupt
	}
	if bitCount%64 != 0 {
		return nil, ErrCorrupt
	}
	f, err := NewBloom(bitCount, hashes, seed)
	if err != nil {
		return nil, ErrCorrupt
	}
	if len(b) != off+len(f.words)*8 {
		return nil, ErrCorrupt
	}
	for i := range f.words {
		f.words[i], off, _ = readU64(b, off)
	}
	return f, nil
}
