package sketch

import (
	"cmp"
	"encoding/binary"
	"slices"

	"approxhadoop/internal/zerocopy"
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
	// list holds the candidates in stable slots. Three flat structures
	// index it, and every mutator keeps them in step.
	list []candidate
	// table answers membership: open-addressed, linear probing, a power
	// of two at least twice len(list); slot id+1 at the key's hash64.
	table []uint32
	// heap holds every slot id once; when heaped it is a min-heap under
	// below. The stored est values are lower bounds, so it is lazy: see
	// weakest. track appends and clears heaped.
	heap   []uint32
	heaped bool
	// arena is the chunk retained keys are appended to; key strings view
	// it and the chunks before it. Written bytes are never rewritten, so
	// views may be shared (Clone, Merge); the slice header never is, or
	// two sketches would append over each other's keys.
	arena []byte
	// floor ranks at or below every candidate in the keep order, so Fold
	// drops an element that ranks below it without a lookup or a scan.
	// Counters only grow, so it holds until a key joins unchecked:
	// filling the set and Merge reset it to zero (no floor), a scan sets
	// it to the weakest candidate, evicted or not (see Fold).
	floor candidate
}

// candidate is one tracked key with its hash64 under the CMS seed; est,
// its estimate when last read — a lower bound on it ever after, because
// Fold and Merge only add to counters; and pre, its first eight bytes
// big-endian and zero-padded: where two differ, their integer order is
// the keys' byte order, and an estimate tie is settled without the keys.
type candidate struct {
	key  string
	hash uint64
	est  uint64
	pre  uint64
}

// below is weaker over two candidates' stored estimates.
func (a *candidate) below(b *candidate) bool {
	if a.est == b.est && a.pre != b.pre {
		return a.pre > b.pre
	}
	return weaker(a.est, a.key, b.est, b.key)
}

// arenaChunk is the least size of an arena chunk.
const arenaChunk = 1024

// retain copies key to the arena and returns a view of the copy. A full
// chunk is left to the keys that view it, never copied from, and is
// garbage once the last of them is evicted.
func (t *TopK) retain(key string) string {
	if len(key) > cap(t.arena)-len(t.arena) {
		t.arena = make([]byte, 0, max(arenaChunk, len(key)))
	}
	n := len(t.arena)
	t.arena = append(t.arena, key...)
	return zerocopy.String(t.arena[n:])
}

// keep returns the candidate for element, its key retained.
func (t *TopK) keep(element string, h, est uint64) candidate {
	return candidate{key: t.retain(element), hash: h, est: est, pre: zerocopy.Prefix64(element)}
}

// track adds a key known to be absent from the candidate set.
func (t *TopK) track(c candidate) {
	t.reserve(len(t.list) + 1)
	t.insert(c.hash, uint32(len(t.list)))
	t.heap = append(t.heap, uint32(len(t.list)))
	t.heaped = false
	t.list = append(t.list, c)
}

// reserve grows the table to hold n candidates, re-entering the
// current ones.
func (t *TopK) reserve(n int) {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	if size <= len(t.table) {
		return
	}
	t.table = make([]uint32, size)
	for i := range t.list {
		t.insert(t.list[i].hash, uint32(i))
	}
}

// find returns the slot of key, whose hash64 is h, or -1. Hashes are
// compared before keys, so a 64-bit collision costs a string compare.
//
//approx:hotpath
func (t *TopK) find(h uint64, key string) int {
	mask := uint64(len(t.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.table[i]
		if s == 0 {
			return -1
		}
		if c := &t.list[s-1]; c.hash == h && c.key == key {
			return int(s - 1)
		}
	}
}

// insert enters slot under hash h; its key must not be in the table.
//
//approx:hotpath
func (t *TopK) insert(h uint64, slot uint32) {
	mask := uint64(len(t.table) - 1)
	i := h & mask
	for t.table[i] != 0 {
		i = (i + 1) & mask
	}
	t.table[i] = slot + 1
}

// remove takes slot out of the table and closes the gap (no tombstones):
// each entry after it in the probe run moves back into the hole unless
// its home position lies cyclically after the hole.
//
//approx:hotpath
func (t *TopK) remove(slot uint32) {
	mask := uint64(len(t.table) - 1)
	i := t.list[slot].hash & mask
	for t.table[i] != slot+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.table[j] != 0; j = (j + 1) & mask {
		if home := t.list[t.table[j]-1].hash & mask; (j-home)&mask >= (j-i)&mask {
			t.table[i] = t.table[j]
			i = j
		}
	}
	t.table[i] = 0
}

// siftDown restores the heap order below position i, whose candidate
// moved up the keep order.
//
//approx:hotpath
func (t *TopK) siftDown(i int) {
	h, l := t.heap, t.list
	s := h[i]
	for j := 2*i + 1; j < len(h); i, j = j, 2*j+1 {
		if j+1 < len(h) && l[h[j+1]].below(&l[h[j]]) {
			j++
		}
		if !l[h[j]].below(&l[s]) {
			break
		}
		h[i] = h[j]
	}
	h[i] = s
}

// weakest returns the candidate that ranks last, its est exact, at the
// heap's root: the root is re-read from the grid and sifted down until
// a read changes nothing. Every other stored est is a lower bound that
// already ranks above that root, so it is a full scan's answer.
//
//approx:hotpath
func (t *TopK) weakest() *candidate {
	if !t.heaped {
		for i := len(t.heap)/2 - 1; i >= 0; i-- {
			t.siftDown(i)
		}
		t.heaped = true
	}
	for {
		c := &t.list[t.heap[0]]
		est := t.cms.countHash(c.hash)
		if est == c.est {
			return c
		}
		c.est = est
		t.siftDown(0)
	}
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
	t := &TopK{k: k, maxCand: maxCand, cms: cms}
	t.reserve(int(maxCand))
	return t, nil
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
// copied to the arena.
//
// Cost: one hash64 of the element, whose Count-Min pass also yields its
// estimate and whose low bits address the table. An element ranking
// below floor stops there. Otherwise one probe finds it already
// tracked, or weakest runs. The weakest becomes the floor even when it
// is then evicted: every survivor ranked above it, so does the
// newcomer, and estimates only grow. Both shortcuts are exact — the
// set is the one a full scan on every fold would keep.
//
//approx:hotpath
func (t *TopK) Fold(element string, count uint64) {
	h := hash64(t.cms.seed, element)
	est := t.cms.foldHash(h, count)
	// est 0 ranks below nothing: the zero floor means no floor.
	if est != 0 && weaker(est, element, t.floor.est, t.floor.key) {
		return
	}
	if t.find(h, element) >= 0 {
		return
	}
	if len(t.list) < int(t.maxCand) {
		t.track(t.keep(element, h, est))
		t.floor = candidate{}
		return
	}
	w := t.weakest()
	t.floor = *w
	if weaker(w.est, w.key, est, element) {
		// The newcomer takes the evicted candidate's slot, at the root.
		t.remove(t.heap[0])
		*w = t.keep(element, h, est)
		t.insert(h, t.heap[0])
		t.siftDown(0)
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
		if t.find(c.hash, c.key) < 0 {
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
	slices.SortFunc(out, func(a, b Entry) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Key, b.Key)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Clone implements Sketch.
func (t *TopK) Clone() Sketch {
	// Room for a full set: a map task clones the empty prototype and fills
	// it, a reducer clones to merge more in. Keys are shared, the arena not.
	n := max(len(t.list), int(t.maxCand))
	return &TopK{k: t.k, maxCand: t.maxCand, cms: t.cms.Clone().(*CMS),
		list: append(make([]candidate, 0, n), t.list...), table: slices.Clone(t.table),
		heap: append(make([]uint32, 0, n), t.heap...), heaped: t.heaped, floor: t.floor}
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
	slices.Sort(keys)
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
	t := &TopK{k: k, maxCand: maxCand, cms: cms}
	if t.k < 1 || t.maxCand < t.k || t.maxCand > 1<<16 {
		return nil, ErrCorrupt
	}
	cnt, off, ok := readU32(b, off)
	if !ok {
		return nil, ErrCorrupt
	}
	t.reserve(min(int(cnt), len(b)-off)) // a candidate takes at least a byte
	prev := ""
	for i := 0; i < int(cnt); i++ {
		var n uint64
		n, off, ok = readUvarint(b, off)
		if !ok || n > uint64(len(b)-off) {
			return nil, ErrCorrupt
		}
		c := zerocopy.String(b[off : off+int(n)])
		off += int(n)
		if i > 0 && c <= prev {
			return nil, ErrCorrupt
		}
		prev = c
		t.track(t.keep(c, hash64(cms.seed, c), 0))
	}
	if off != len(b) {
		return nil, ErrCorrupt
	}
	return t, nil
}
