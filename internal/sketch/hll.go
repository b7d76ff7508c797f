package sketch

import (
	"math"
	"math/bits"
)

// HLL is a HyperLogLog distinct counter (Flajolet et al. 2007) with the
// standard small-range linear-counting correction. Precision p selects
// m = 2^p registers; the relative standard error of Estimate is
// 1.04/sqrt(m) (~2.3% at the default p=11).
//
// Representation: a map task's per-group sketch usually sees far fewer
// distinct elements than it has registers, so the sketch starts sparse —
// a sorted slice of packed (register index, rho) entries — and promotes
// to the dense 2^p register array only past a load threshold. The
// serialized form always picks the representation from the *content*
// (non-zero register count), never from the in-memory history, keeping
// bytes canonical across merge orders. Sparse serialization is what
// makes the shuffle O(min(distinct, m)) instead of a flat 2^p bytes per
// group per task.
type HLL struct {
	p    uint8
	seed uint64
	// sparse holds packed entries idx<<8|rho sorted ascending by idx
	// (idx unique); nil once promoted to dense.
	sparse []uint32
	dense  []uint8
}

// HLL precision bounds: p in [4, 16] keeps register indexes within
// uint16 for the packed sparse form and m within 64 KiB dense.
const (
	minHLLPrecision = 4
	maxHLLPrecision = 16
)

// NewHLL builds an empty HLL with 2^p registers and the given hash
// seed. Precision outside [4, 16] returns ErrBadParams.
func NewHLL(p uint8, seed uint64) (*HLL, error) {
	if p < minHLLPrecision || p > maxHLLPrecision {
		return nil, ErrBadParams
	}
	return &HLL{p: p, seed: seed}, nil
}

// Kind implements Sketch.
func (h *HLL) Kind() Kind { return KindHLL }

// m returns the register count.
func (h *HLL) m() int { return 1 << h.p }

// Fold implements Sketch: count is ignored (distinct counting is
// presence-only), the element's register is raised to max(reg, rho).
//
//approx:hotpath
func (h *HLL) Fold(element string, _ uint64) {
	x := hash64(h.seed, element)
	idx := uint32(x >> (64 - h.p))
	w := x << h.p
	var rho uint8
	if w == 0 {
		rho = uint8(64 - int(h.p) + 1)
	} else {
		rho = uint8(bits.LeadingZeros64(w) + 1)
	}
	h.set(idx, rho)
}

// set raises register idx to at least rho.
//
//approx:hotpath
func (h *HLL) set(idx uint32, rho uint8) {
	if h.dense != nil {
		if rho > h.dense[idx] {
			h.dense[idx] = rho
		}
		return
	}
	// Binary search the sorted sparse entries by register index.
	lo, hi := 0, len(h.sparse)
	for lo < hi {
		mid := (lo + hi) >> 1
		if h.sparse[mid]>>8 < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.sparse) && h.sparse[lo]>>8 == idx {
		if rho > uint8(h.sparse[lo]) {
			h.sparse[lo] = idx<<8 | uint32(rho)
		}
		return
	}
	h.sparse = append(h.sparse, 0)
	copy(h.sparse[lo+1:], h.sparse[lo:])
	h.sparse[lo] = idx<<8 | uint32(rho)
	if h.overloaded(len(h.sparse)) {
		h.promote()
	}
}

// overloaded reports whether n sparse entries should live dense: past
// m/4 entries the 4-byte packed form stops being smaller than the
// 1-byte-per-register array.
func (h *HLL) overloaded(n int) bool { return n*4 >= h.m() }

// promote converts the sparse entries to the dense register array.
func (h *HLL) promote() {
	d := make([]uint8, h.m())
	for _, e := range h.sparse {
		idx := e >> 8
		if uint8(e) > d[idx] {
			d[idx] = uint8(e)
		}
	}
	h.dense = d
	h.sparse = nil
}

// Merge implements Sketch: element-wise register max. Two sparse
// sketches merge by a sorted merge-join; any dense operand promotes the
// receiver.
func (h *HLL) Merge(other Sketch) error {
	o, ok := other.(*HLL)
	if !ok || o.p != h.p || o.seed != h.seed {
		return ErrMismatch
	}
	if h.dense == nil && o.dense == nil {
		h.mergeSparse(o.sparse)
		return nil
	}
	if h.dense == nil {
		h.promote()
	}
	if o.dense != nil {
		for i, r := range o.dense {
			if r > h.dense[i] {
				h.dense[i] = r
			}
		}
		return nil
	}
	for _, e := range o.sparse {
		idx := e >> 8
		if uint8(e) > h.dense[idx] {
			h.dense[idx] = uint8(e)
		}
	}
	return nil
}

// mergeSparse merge-joins another sorted sparse entry list into the
// receiver, promoting if the union overflows the sparse threshold.
//
//approx:hotpath
func (h *HLL) mergeSparse(other []uint32) {
	if len(other) == 0 {
		return
	}
	merged := make([]uint32, 0, len(h.sparse)+len(other))
	i, j := 0, 0
	for i < len(h.sparse) && j < len(other) {
		a, b := h.sparse[i], other[j]
		switch {
		case a>>8 < b>>8:
			merged = append(merged, a)
			i++
		case a>>8 > b>>8:
			merged = append(merged, b)
			j++
		default:
			if uint8(b) > uint8(a) {
				a = b
			}
			merged = append(merged, a)
			i++
			j++
		}
	}
	merged = append(merged, h.sparse[i:]...)
	merged = append(merged, other[j:]...)
	h.sparse = merged
	if h.overloaded(len(h.sparse)) {
		h.promote()
	}
}

// nonZero returns the number of non-zero registers.
func (h *HLL) nonZero() int {
	if h.dense == nil {
		return len(h.sparse)
	}
	n := 0
	for _, r := range h.dense {
		if r != 0 {
			n++
		}
	}
	return n
}

// Estimate returns the estimated distinct count: the standard HLL
// harmonic-mean estimator with linear counting below 2.5m when empty
// registers remain.
func (h *HLL) Estimate() float64 {
	m := float64(h.m())
	sum := 0.0
	zeros := 0
	if h.dense != nil {
		for _, r := range h.dense {
			if r == 0 {
				zeros++
				sum += 1
				continue
			}
			sum += math.Ldexp(1, -int(r))
		}
	} else {
		zeros = h.m() - len(h.sparse)
		sum = float64(zeros)
		for _, e := range h.sparse {
			sum += math.Ldexp(1, -int(uint8(e)))
		}
	}
	est := h.alpha() * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return est
}

// alpha is the bias-correction constant for m registers.
func (h *HLL) alpha() float64 {
	switch h.m() {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(h.m()))
}

// RelStdErr returns the advertised relative standard error of Estimate:
// 1.04/sqrt(m).
func (h *HLL) RelStdErr() float64 { return 1.04 / math.Sqrt(float64(h.m())) }

// Clone implements Sketch.
func (h *HLL) Clone() Sketch {
	c := &HLL{p: h.p, seed: h.seed}
	if h.dense != nil {
		c.dense = append([]uint8(nil), h.dense...)
	} else if len(h.sparse) > 0 {
		c.sparse = append([]uint32(nil), h.sparse...)
	}
	return c
}

// Serialized layout (little-endian):
//
//	byte 0: kind (1)          byte 1: version
//	byte 2: p                 byte 3: form (0 sparse, 1 dense)
//	u64: seed
//	sparse: u32 count, then count packed u32 entries sorted by index
//	dense:  2^p register bytes
//
// The form byte is chosen from the non-zero register count alone, so
// two sketches with equal content serialize identically regardless of
// their in-memory representation.

// AppendBinary implements Sketch.
func (h *HLL) AppendBinary(dst []byte) []byte {
	nz := h.nonZero()
	dst = append(dst, byte(KindHLL), serialVersion, h.p)
	if h.serializeSparse(nz) {
		dst = append(dst, 0)
		dst = appendU64(dst, h.seed)
		dst = appendU32(dst, uint32(nz))
		if h.dense == nil {
			for _, e := range h.sparse {
				dst = appendU32(dst, e)
			}
			return dst
		}
		for idx, r := range h.dense {
			if r != 0 {
				dst = appendU32(dst, uint32(idx)<<8|uint32(r))
			}
		}
		return dst
	}
	dst = append(dst, 1)
	dst = appendU64(dst, h.seed)
	if h.dense != nil {
		return append(dst, h.dense...)
	}
	start := len(dst)
	for i := 0; i < h.m(); i++ {
		dst = append(dst, 0)
	}
	for _, e := range h.sparse {
		dst[start+int(e>>8)] = uint8(e)
	}
	return dst
}

// serializeSparse picks the canonical wire form for nz non-zero
// registers: sparse while 4-byte entries undercut the dense array.
func (h *HLL) serializeSparse(nz int) bool { return nz*4 < h.m() }

// SizeBytes implements Sketch.
func (h *HLL) SizeBytes() int {
	nz := h.nonZero()
	if h.serializeSparse(nz) {
		return 4 + 8 + 4 + 4*nz
	}
	return 4 + 8 + h.m()
}

func decodeHLL(b []byte) (Sketch, error) {
	if len(b) < 12 {
		return nil, ErrCorrupt
	}
	p, form := b[2], b[3]
	h, err := NewHLL(p, 0)
	if err != nil {
		return nil, ErrCorrupt
	}
	var ok bool
	h.seed, _, ok = readU64(b, 4)
	if !ok {
		return nil, ErrCorrupt
	}
	off := 12
	switch form {
	case 0:
		cnt, off2, ok := readU32(b, off)
		if !ok || len(b) != off2+4*int(cnt) || h.overloaded(int(cnt)) {
			return nil, ErrCorrupt
		}
		off = off2
		prev := int64(-1)
		for i := 0; i < int(cnt); i++ {
			e, off2, _ := readU32(b, off)
			off = off2
			if int64(e>>8) <= prev || int(e>>8) >= h.m() || uint8(e) == 0 {
				return nil, ErrCorrupt
			}
			prev = int64(e >> 8)
			h.sparse = append(h.sparse, e)
		}
		return h, nil
	case 1:
		if len(b) != off+h.m() {
			return nil, ErrCorrupt
		}
		h.dense = append([]uint8(nil), b[off:]...)
		return h, nil
	}
	return nil, ErrCorrupt
}
