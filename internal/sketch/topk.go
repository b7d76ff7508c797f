package sketch

import (
	"encoding/binary"
	"sort"
	"strings"
)

// TopK finds heavy hitters: a Count-Min sketch for frequency estimates
// plus a bounded candidate set of element keys. The construction keeps
// the determinism contract that a plain "CMS + top-k heap" breaks:
// pruning candidates during Merge would make the surviving set depend
// on merge order, so Merge never prunes — it adds the CMS grids and
// unions the candidate sets (both commutative and associative). Only
// Fold, which is strictly local to one map task and therefore sees one
// deterministic record order, caps the candidate set, evicting by a
// total order (lowest estimate first, largest key on ties). Top applies
// the same total order at query time.
//
// The candidate cap bounds state: a task sketch carries at most
// Candidates keys, and a reduce-side merge of t task sketches at most
// t·Candidates.
type TopK struct {
	k       uint32
	maxCand uint32
	cms     *CMS
	// cand answers membership; list holds the same keys, each beside
	// its hash64 and a lower bound on its estimate, so the eviction
	// scan compares integers and reads the CMS only for candidates that
	// could rank last. Every mutator keeps the two in step.
	cand map[string]struct{}
	list []candidate
	// floor ranks at or below every candidate in the keep order, so Fold
	// drops an element that ranks below it without a lookup or a scan.
	// Counters only grow, so it holds until a key joins unchecked:
	// filling the set and Merge reset it to zero (no floor), a scan sets
	// it to the weakest candidate, evicted or not (see Fold).
	floor candidate
}

// candidate is one tracked key with its hash64 under the CMS seed and
// est, its estimate when last read — a lower bound on it ever after,
// because Fold and Merge only add to counters.
type candidate struct {
	key  string
	hash uint64
	est  uint64
}

// track adds a key known to be absent from the candidate set.
func (t *TopK) track(c candidate) {
	t.cand[c.key] = struct{}{}
	t.list = append(t.list, c)
}

// NewTopK builds a heavy-hitter sketch returning the k top elements,
// tracking up to maxCand ≥ k candidates (slack absorbs estimate noise),
// over a width×depth Count-Min grid.
func NewTopK(k, maxCand, width, depth uint32, seed uint64) (*TopK, error) {
	if k < 1 || maxCand < k || maxCand > 1<<16 {
		return nil, ErrBadParams
	}
	cms, err := NewCMS(width, depth, seed)
	if err != nil {
		return nil, err
	}
	return &TopK{k: k, maxCand: maxCand, cms: cms, cand: make(map[string]struct{}, maxCand)}, nil
}

// Kind implements Sketch.
func (t *TopK) Kind() Kind { return KindTopK }

// K returns the query size k.
func (t *TopK) K() int { return int(t.k) }

// CMS exposes the underlying Count-Min sketch (for its error story).
func (t *TopK) CMS() *CMS { return t.cms }

// weaker reports whether candidate (aEst, aKey) ranks below (bEst,
// bKey) in the keep order: lower estimate loses, ties lose on the
// lexicographically larger key. This total order is what makes
// eviction and Top deterministic.
func weaker(aEst uint64, aKey string, bEst uint64, bKey string) bool {
	if aEst != bEst {
		return aEst < bEst
	}
	return aKey > bKey
}

// Fold implements Sketch: counts the element in the CMS and maintains
// the bounded candidate set. The element string may be a transient
// buffer view (the record lifetime contract); retained candidates are
// cloned.
//
// Cost: one hash64 of the element, whose Count-Min pass also yields its
// estimate. An element ranking below floor stops there. Otherwise one
// map lookup finds it already tracked, or the scan for the weakest
// candidate runs: a candidate's est never exceeds its estimate, so one
// whose est ranks above the weakest exact estimate seen so far cannot
// rank last and is passed over without a CMS read. The weakest becomes
// the floor even when it is then evicted: every survivor ranked above
// it, so does the newcomer, and estimates only grow. Both shortcuts are
// exact — the set is the one a full scan on every fold would keep.
//
//approx:hotpath
func (t *TopK) Fold(element string, count uint64) {
	h := hash64(t.cms.seed, element)
	est := t.cms.foldHash(h, count)
	// est 0 ranks below nothing: the zero floor means no floor.
	if est != 0 && weaker(est, element, t.floor.est, t.floor.key) {
		return
	}
	if _, ok := t.cand[element]; ok {
		return
	}
	if len(t.list) < int(t.maxCand) {
		t.track(candidate{key: strings.Clone(element), hash: h, est: est})
		t.floor = candidate{}
		return
	}
	// Scan for the weakest candidate under the total order.
	w := &t.list[0]
	w.est = t.cms.countHash(w.hash)
	for i := 1; i < len(t.list); i++ {
		c := &t.list[i]
		if !weaker(c.est, c.key, w.est, w.key) {
			continue
		}
		c.est = t.cms.countHash(c.hash)
		if weaker(c.est, c.key, w.est, w.key) {
			w = c
		}
	}
	t.floor = *w
	if weaker(w.est, w.key, est, element) {
		delete(t.cand, w.key)
		*w = candidate{key: strings.Clone(element), hash: h, est: est}
		t.cand[w.key] = struct{}{}
	}
}

// Merge implements Sketch: CMS addition plus candidate-set union, with
// no pruning — see the type comment for why.
func (t *TopK) Merge(other Sketch) error {
	o, ok := other.(*TopK)
	if !ok || o.k != t.k || o.maxCand != t.maxCand {
		return ErrMismatch
	}
	if err := t.cms.Merge(o.cms); err != nil {
		return err
	}
	for _, c := range o.list {
		if _, ok := t.cand[c.key]; !ok {
			t.track(c) // c.est bounds the merged estimate too: the sum is no smaller
		}
	}
	t.floor = candidate{}
	return nil
}

// Entry is one heavy-hitter result.
type Entry struct {
	Key   string
	Count uint64 // CMS estimate: true count ≤ Count ≤ true + ε·W (w.h.p.)
}

// Top returns up to k entries sorted by (estimate desc, key asc).
func (t *TopK) Top(k int) []Entry {
	out := make([]Entry, 0, len(t.list))
	for _, c := range t.list {
		out = append(out, Entry{Key: c.key, Count: t.cms.countHash(c.hash)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Clone implements Sketch.
func (t *TopK) Clone() Sketch {
	// Room for a full candidate set: a map task clones the empty
	// prototype and fills it, a reducer clones to merge more in.
	n := max(len(t.list), int(t.maxCand))
	c := &TopK{k: t.k, maxCand: t.maxCand, cms: t.cms.Clone().(*CMS), cand: make(map[string]struct{}, n),
		list: append(make([]candidate, 0, n), t.list...), floor: t.floor}
	for _, k := range t.list {
		c.cand[k.key] = struct{}{}
	}
	return c
}

// Serialized layout:
//
//	byte 0: kind (3)   byte 1: version
//	u32 k, u32 maxCand,
//	u32 cmsLen, cmsLen bytes of the embedded CMS,
//	u32 candidate count, then per candidate uvarint len + bytes,
//	candidates sorted lexicographically.
//
// Sorting the candidate set makes the bytes canonical: the set has no
// inherent order, the wire form imposes one.

// AppendBinary implements Sketch.
func (t *TopK) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(KindTopK), serialVersion)
	dst = appendU32(dst, t.k)
	dst = appendU32(dst, t.maxCand)
	lenAt := len(dst)
	dst = t.cms.AppendBinary(appendU32(dst, 0))
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	keys := make([]string, 0, len(t.list))
	for _, c := range t.list {
		keys = append(keys, c.key)
	}
	sort.Strings(keys)
	dst = appendU32(dst, uint32(len(keys)))
	for _, c := range keys {
		dst = appendUvarint(dst, uint64(len(c)))
		dst = append(dst, c...)
	}
	return dst
}

// SizeBytes implements Sketch.
func (t *TopK) SizeBytes() int {
	n := 2 + 4 + 4 + 4 + t.cms.SizeBytes() + 4
	for _, c := range t.list {
		n += uvarintLen(uint64(len(c.key))) + len(c.key)
	}
	return n
}

func decodeTopK(b []byte) (Sketch, error) {
	off := 2
	k, off, ok := readU32(b, off)
	if !ok {
		return nil, ErrCorrupt
	}
	maxCand, off, ok := readU32(b, off)
	if !ok {
		return nil, ErrCorrupt
	}
	cmsLen, off, ok := readU32(b, off)
	if !ok || off+int(cmsLen) > len(b) {
		return nil, ErrCorrupt
	}
	inner, err := Decode(b[off : off+int(cmsLen)])
	if err != nil {
		return nil, err
	}
	cms, ok := inner.(*CMS)
	if !ok {
		return nil, ErrCorrupt
	}
	off += int(cmsLen)
	t := &TopK{k: k, maxCand: maxCand, cms: cms, cand: make(map[string]struct{})}
	if t.k < 1 || t.maxCand < t.k || t.maxCand > 1<<16 {
		return nil, ErrCorrupt
	}
	cnt, off, ok := readU32(b, off)
	if !ok {
		return nil, ErrCorrupt
	}
	prev := ""
	for i := 0; i < int(cnt); i++ {
		var n uint64
		n, off, ok = readUvarint(b, off)
		if !ok || off+int(n) > len(b) {
			return nil, ErrCorrupt
		}
		c := string(b[off : off+int(n)])
		off += int(n)
		if i > 0 && c <= prev {
			return nil, ErrCorrupt
		}
		prev = c
		t.track(candidate{key: c, hash: hash64(cms.seed, c)})
	}
	if off != len(b) {
		return nil, ErrCorrupt
	}
	return t, nil
}
