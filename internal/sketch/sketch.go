// Package sketch implements the mergeable probabilistic summaries the
// sketch-compressed shuffle is built on: HyperLogLog (distinct count),
// Count-Min with a candidate set (top-k heavy hitters), and a Bloom
// filter (membership). All three share the properties the data plane
// needs:
//
//   - Fixed-size state: a map task's output per group is bounded by the
//     sketch parameters, not by the number of records folded in, which
//     collapses shuffle volume from O(keys) per task to O(1) per
//     partition.
//   - Commutative, associative Merge: merging is register-max (HLL),
//     element-wise integer addition (CMS), or bit-OR (Bloom), so the
//     merged state — and therefore the job output — is identical for
//     any merge order and any worker count. Count-Min counters are
//     uint64 on purpose: float addition is not associative and would
//     break the bit-identity contract.
//   - Canonical serialization: AppendBinary emits bytes that are a pure
//     function of the sketch's logical content (never of its insertion
//     or merge history), so byte-level comparison is a valid
//     determinism test.
//
// Hashing is deterministic and stdlib-only: seeded FNV-1a 64 finished
// with a splitmix64-style avalanche, so the same (seed, element) pair
// hashes identically on every platform and every run.
package sketch

import (
	"encoding/binary"
	"errors"
)

// Kind discriminates the sketch families.
type Kind uint8

// Sketch kinds, also used as the leading byte of the serialized form.
const (
	KindHLL   Kind = 1
	KindCMS   Kind = 2
	KindTopK  Kind = 3
	KindBloom Kind = 4
)

// String returns the kind's short name.
func (k Kind) String() string {
	switch k {
	case KindHLL:
		return "hll"
	case KindCMS:
		return "cms"
	case KindTopK:
		return "topk"
	case KindBloom:
		return "bloom"
	}
	return "unknown"
}

// serialVersion is the second byte of every serialized sketch.
const serialVersion = 1

// Static errors: Merge and Decode run on hot framework paths where
// fmt.Errorf would allocate (and trip the hotpath analyzer).
var (
	ErrMismatch  = errors.New("sketch: merge of incompatible sketches (kind, parameters and seed must match)")
	ErrCorrupt   = errors.New("sketch: corrupt or truncated serialized sketch")
	ErrBadParams = errors.New("sketch: invalid parameters")
)

// Sketch is the interface the data plane moves around. Fold and Merge
// are the only mutators; everything else observes.
//
// The determinism contract: for any multiset of (element, count) folds
// distributed across any number of Sketch instances and merged in any
// order, the final AppendBinary bytes are identical.
//
//approx:pure
type Sketch interface {
	// Kind returns the sketch family.
	Kind() Kind
	// Fold folds count occurrences of element into the sketch. HLL and
	// Bloom ignore count (presence-only); CMS/TopK add it.
	Fold(element string, count uint64)
	// Merge folds another sketch of the same kind and parameters into
	// this one. It returns ErrMismatch when kinds, parameters, or seeds
	// differ; the receiver is unchanged on error.
	Merge(other Sketch) error
	// AppendBinary appends the canonical serialized form to dst and
	// returns the extended slice.
	AppendBinary(dst []byte) []byte
	// SizeBytes returns len of the canonical serialized form without
	// materializing it — the shuffle-bytes accounting cost.
	SizeBytes() int
	// Clone returns an independent deep copy. Reducers clone before
	// merging because MapOutput payloads are shared (memoized across
	// speculative attempts) and must stay immutable.
	Clone() Sketch
}

// Decode parses a sketch serialized by AppendBinary.
func Decode(b []byte) (Sketch, error) {
	if len(b) < 2 {
		return nil, ErrCorrupt
	}
	if b[1] != serialVersion {
		return nil, ErrCorrupt
	}
	switch Kind(b[0]) {
	case KindHLL:
		return decodeHLL(b)
	case KindCMS:
		return decodeCMS(b)
	case KindTopK:
		return decodeTopK(b)
	case KindBloom:
		return decodeBloom(b)
	}
	return nil, ErrCorrupt
}

// hash64 is the deterministic seeded element hash: FNV-1a 64 over the
// element bytes with the (mixed) seed folded into the offset basis,
// then a splitmix64 finalizer so low-entropy inputs still spread across
// all 64 bits. Stdlib-only and allocation-free.
//
//approx:hotpath
func hash64(seed uint64, s string) uint64 {
	h := uint64(14695981039346656037) ^ mix64(seed+0x9e3779b97f4a7c15)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is the splitmix64 avalanche function.
//
//approx:hotpath
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// doubleHash derives the i-th table index from two halves of one 64-bit
// hash (Kirsch–Mitzenmacher): idx_i = h1 + i*h2 mod size, with h2 forced
// odd so successive probes cover the table.
//
//approx:hotpath
func doubleHash(h uint64, i, size uint64) uint64 {
	h1 := h >> 32
	h2 := (h & 0xffffffff) | 1
	return (h1 + i*h2) % size
}

// --- varint helpers (canonical LEB128, unsigned) -----------------------

// appendUvarint appends v in unsigned LEB128.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// uvarintLen returns the encoded length of v without encoding it.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readUvarint decodes a uvarint from b, returning the value and the new
// offset, or ok=false on truncation, overflow or a padded encoding: a
// multi-byte varint ending in a zero group re-encodes shorter than it
// was read, so accepting it would break Decode's canonical-form
// contract (two byte strings for one sketch).
func readUvarint(b []byte, off int) (v uint64, next int, ok bool) {
	if off < 0 || off > len(b) {
		return 0, 0, false
	}
	v, n := binary.Uvarint(b[off:])
	if n <= 0 || (n > 1 && b[off+n-1] == 0) {
		return 0, 0, false
	}
	return v, off + n, true
}

// appendU32/appendU64 append fixed-width little-endian integers.
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

func readU32(b []byte, off int) (uint32, int, bool) {
	if off+4 > len(b) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(b[off:]), off + 4, true
}

func readU64(b []byte, off int) (uint64, int, bool) {
	if off+8 > len(b) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(b[off:]), off + 8, true
}
