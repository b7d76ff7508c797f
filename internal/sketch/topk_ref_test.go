package sketch

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"approxhadoop/internal/zerocopy"
)

// refTopK is the reference model of TopK: the candidate set as a plain
// map and Fold kept verbatim from before the hash-once rewrite — three
// hashes per non-candidate, minEst reset to 0 after every eviction, a
// scan that re-hashes every candidate key. It shares nothing with TopK
// but the CMS's exported Fold and Count, so the two agreeing byte for
// byte is evidence the rewrite kept the candidate sets.
type refTopK struct {
	k, maxCand uint32
	cms        *CMS
	cand       map[string]struct{}
	minEst     uint64
}

func newRefTopK(k, maxCand, width, depth uint32, seed uint64) *refTopK {
	cms, err := NewCMS(width, depth, seed)
	if err != nil {
		panic(err)
	}
	return &refTopK{k: k, maxCand: maxCand, cms: cms, cand: map[string]struct{}{}}
}

func (t *refTopK) Fold(element string, count uint64) {
	t.cms.Fold(element, count)
	if _, ok := t.cand[element]; ok {
		return
	}
	if len(t.cand) < int(t.maxCand) {
		t.cand[strings.Clone(element)] = struct{}{}
		t.minEst = 0
		return
	}
	est := t.cms.Count(element)
	if est < t.minEst {
		return
	}
	// Scan for the weakest candidate under the total order.
	wEst := ^uint64(0)
	wKey := ""
	for c := range t.cand {
		ce := t.cms.Count(c)
		if wEst == ^uint64(0) || weaker(ce, c, wEst, wKey) {
			wEst, wKey = ce, c
		}
	}
	t.minEst = wEst
	if weaker(wEst, wKey, est, element) {
		delete(t.cand, wKey)
		t.cand[strings.Clone(element)] = struct{}{}
		t.minEst = 0
	}
}

func (t *refTopK) merge(o *refTopK) {
	if err := t.cms.Merge(o.cms); err != nil {
		panic(err)
	}
	for c := range o.cand {
		t.cand[c] = struct{}{}
	}
	t.minEst = 0
}

func (t *refTopK) clone() *refTopK {
	c := &refTopK{k: t.k, maxCand: t.maxCand, cms: t.cms.Clone().(*CMS), cand: map[string]struct{}{}}
	for k := range t.cand {
		c.cand[k] = struct{}{}
	}
	return c
}

// bytes serializes the model through a TopK assembled from its parts,
// so the comparison is on the wire form the shuffle accounts and the
// fuzzers check.
func (t *refTopK) bytes() []byte {
	w := &TopK{k: t.k, maxCand: t.maxCand, cms: t.cms}
	for c := range t.cand {
		w.list = append(w.list, candidate{key: c}) // all AppendBinary reads of a candidate
	}
	return w.AppendBinary(nil)
}

// rankStream returns n seeded ranks in [0, universe): Zipf(1.2) when
// skewed — the access log's page popularity — uniform otherwise.
func rankStream(skewed bool, universe uint64, n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, universe-1)
	out := make([]uint64, n)
	for i := range out {
		if skewed {
			out[i] = zipf.Uint64()
		} else {
			out[i] = uint64(rng.Int63n(int64(universe)))
		}
	}
	return out
}

// rankBytes renders a rank stream as fuzz input for FuzzSketchMerge
// (fuzzElements maps each byte to an element and a weight).
func rankBytes(ranks []uint64) []byte {
	out := make([]byte, len(ranks))
	for i, r := range ranks {
		out[i] = byte(r)
	}
	return out
}

// checkSideState fails unless the three structures beside the
// candidate list agree with it: heap is a permutation of the slot ids
// and, once heaped, a heap under weaker over the stored estimates;
// table is a power of two at least twice the list, holds one entry per
// slot and finds every key; every stored hash is the key's hash64.
func checkSideState(t *testing.T, label string, k *TopK) {
	t.Helper()
	n := len(k.list)
	if len(k.heap) != n {
		t.Fatalf("%s: %d slots in the heap, %d in the list", label, len(k.heap), n)
	}
	seen := make([]bool, n)
	for i, s := range k.heap {
		if int(s) >= n || seen[s] {
			t.Fatalf("%s: heap[%d] = %d is out of range or repeated", label, i, s)
		}
		seen[s] = true
		p := &k.list[k.heap[(i-1)/2]]
		if c := &k.list[s]; k.heaped && i > 0 && weaker(c.est, c.key, p.est, p.key) {
			t.Fatalf("%s: heap[%d] (%d, %q) is weaker than its parent (%d, %q)", label, i, c.est, c.key, p.est, p.key)
		}
	}
	if m := len(k.table); m&(m-1) != 0 || m < 2*n || m == 0 {
		t.Fatalf("%s: table of %d for %d candidates", label, m, n)
	}
	used := 0
	for _, s := range k.table {
		if s != 0 {
			used++
		}
	}
	if used != n {
		t.Fatalf("%s: %d table entries for %d candidates", label, used, n)
	}
	for i, c := range k.list {
		if c.hash != hash64(k.cms.seed, c.key) || c.pre != zerocopy.Prefix64(c.key) {
			t.Fatalf("%s: stale hash or prefix beside %q", label, c.key)
		}
		if got := k.find(c.hash, c.key); got != i {
			t.Fatalf("%s: key %q of slot %d found at %d", label, c.key, i, got)
		}
		if c.est > k.cms.countHash(c.hash) {
			t.Fatalf("%s: stored estimate %d of %q exceeds its estimate", label, c.est, c.key)
		}
	}
}

// TestTopKFoldMatchesReference drives TopK and the reference model
// with the same seeded streams and requires identical AppendBinary
// bytes after every 257 folds, across candidate caps, grid widths (two
// powers of two for the mask path, two not) and with Clone, Merge and
// Decode-then-continue interleaved — every way the side state beside
// the candidates is built or copied.
func TestTopKFoldMatchesReference(t *testing.T) {
	const n = 6000
	for _, maxCand := range []uint32{1, 8, 80} {
		for _, width := range []uint32{2, 255, 256, 1000} {
			for _, skewed := range []bool{true, false} {
				label := "cand=" + strconv.Itoa(int(maxCand)) + " width=" + strconv.Itoa(int(width)) +
					" skewed=" + strconv.FormatBool(skewed)
				ranks := rankStream(skewed, 3000, n, int64(maxCand)*7919+int64(width))
				k := min(maxCand, 4)
				got, err := NewTopK(k, maxCand, width, 3, 11)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefTopK(k, maxCand, width, 3, 11)
				// A second pair folds every third record under keys of its
				// own, to be merged in: light candidates the receiver's
				// floor knows nothing about.
				side, _ := NewTopK(k, maxCand, width, 3, 11)
				sideRef := newRefTopK(k, maxCand, width, 3, 11)
				for i, r := range ranks {
					e := "page" + strconv.FormatUint(r, 10)
					w := r % 3 // weight 0 folds nothing into the CMS but still competes
					if i%3 == 0 {
						e = "side" + strconv.FormatUint(r*31%3000, 10)
						side.Fold(e, w/2)
						sideRef.Fold(e, w/2)
					} else {
						got.Fold(e, w)
						ref.Fold(e, w)
					}
					if (i+1)%257 != 0 {
						continue
					}
					switch (i + 1) / 257 % 4 {
					case 1:
						got = got.Clone().(*TopK)
						ref = ref.clone()
					case 2:
						dec, err := Decode(got.AppendBinary(nil))
						if err != nil {
							t.Fatalf("%s: decode at %d: %v", label, i, err)
						}
						got = dec.(*TopK)
					case 3:
						if err := got.Merge(side); err != nil {
							t.Fatalf("%s: merge at %d: %v", label, i, err)
						}
						ref.merge(sideRef)
					}
					checkSideState(t, label, got)
					if a, b := got.AppendBinary(nil), ref.bytes(); !bytes.Equal(a, b) {
						t.Fatalf("%s: bytes differ from the reference after %d folds (%d vs %d bytes, %d vs %d candidates)",
							label, i+1, len(a), len(b), len(got.list), len(ref.cand))
					}
				}
			}
		}
	}
}

// TestTopKTableWrapAndShift drives find, insert and remove directly on
// an 8-entry table with every hash's low bits forced to 6 or 7, so each
// probe run wraps around position 0 and each removal has a run to
// close, against a map model. Some keys share a whole hash: equality
// has to fall through to the key bytes.
func TestTopKTableWrapAndShift(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k := &TopK{table: make([]uint32, 8), list: make([]candidate, 7)}
	model := map[string]int{} // key → slot
	var live []string
	free := []int{0, 1, 2, 3, 4, 5, 6}
	for op := 0; op < 20000; op++ {
		if len(free) > 0 && (len(live) == 0 || rng.Intn(2) == 0) {
			key := "k" + strconv.Itoa(op)
			slot := free[len(free)-1]
			free = free[:len(free)-1]
			k.list[slot] = candidate{key: key, hash: uint64(rng.Intn(3))<<3 | 6 | uint64(rng.Intn(2))}
			k.insert(k.list[slot].hash, uint32(slot))
			model[key] = slot
			live = append(live, key)
		} else {
			i := rng.Intn(len(live))
			key := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			slot := model[key]
			k.remove(uint32(slot))
			delete(model, key)
			free = append(free, slot)
			if got := k.find(k.list[slot].hash, key); got != -1 {
				t.Fatalf("op %d: removed key %q still found at %d", op, key, got)
			}
		}
		used := 0
		for _, s := range k.table {
			if s != 0 {
				used++
			}
		}
		if used != len(model) {
			t.Fatalf("op %d: %d table entries for %d keys", op, used, len(model))
		}
		for key, slot := range model {
			if got := k.find(k.list[slot].hash, key); got != slot {
				t.Fatalf("op %d: key %q of slot %d found at %d (table %v)", op, key, slot, got, k.table)
			}
		}
	}
}

// TestCandidateBelowIsWeaker: settling an estimate tie on the packed
// prefixes gives weaker's answer, also where one key is a prefix of the
// other, keys hold zero bytes, or they first differ past the prefix.
func TestCandidateBelowIsWeaker(t *testing.T) {
	keys := []string{"", "\x00", "a", "a\x00", "a\x00\x00b", "ab", "abcdefg", "abcdefgh", "abcdefgh\x00",
		"abcdefghi", "abcdefghj", "abcdefgz", "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x01"}
	for _, ka := range keys {
		for _, kb := range keys {
			for _, ests := range [][2]uint64{{3, 3}, {2, 3}, {3, 2}} {
				a := candidate{key: ka, est: ests[0], pre: zerocopy.Prefix64(ka)}
				b := candidate{key: kb, est: ests[1], pre: zerocopy.Prefix64(kb)}
				if got, want := a.below(&b), weaker(a.est, ka, b.est, kb); got != want {
					t.Errorf("(%d, %q) below (%d, %q) = %v, weaker says %v", a.est, ka, b.est, kb, got, want)
				}
			}
		}
	}
}

// taskElements is one map task's worth of records at the job's shape:
// 2000 Zipf page draws.
func taskElements() []string {
	ranks := rankStream(true, 20000, 2000, 1)
	es := make([]string, len(ranks))
	for i, r := range ranks {
		es[i] = "page" + strconv.FormatUint(r+1, 10)
	}
	return es
}

// TestTopKFoldPerTaskAllocs is the allocation contract of a map task's
// sketch: cloning the default plan's empty prototype and folding a
// task's records allocates the clone's parts and a few arena chunks —
// nothing per tracked key or per eviction (283 objects before the
// arena).
func TestTopKFoldPerTaskAllocs(t *testing.T) {
	es := taskElements()
	proto, err := NewTopK(10, 80, 256, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		s := proto.Clone()
		for _, e := range es {
			s.Fold(e, 1)
		}
	})
	t.Logf("%.0f allocs per task sketch", allocs)
	if allocs > 12 {
		t.Errorf("%.0f allocs per task sketch, want at most 12", allocs)
	}
}

// TestTopKArenaBounded pins what the key arena may keep alive.
func TestTopKArenaBounded(t *testing.T) {
	// A long-lived sketch under steady eviction: evicted keys' chunks
	// must become garbage, so the live heap after 300 k folds of a
	// mostly-distinct stream stays within a fixed bound (80 live keys can
	// pin 80 chunks) of its value after the first 10 k. Weights rise and
	// the grid is wide enough to keep estimates near the weights, so
	// evictions go on throughout: about 1 MB of 128-byte keys passes
	// through the arena after the baseline is taken.
	t.Run("live heap", func(t *testing.T) {
		s, err := NewTopK(10, 80, 1<<20, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		live := func() uint64 {
			var m runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m)
			return m.HeapAlloc
		}
		var base uint64
		key := make([]byte, 0, 128)
		for i := 0; i < 300000; i++ {
			if i == 10000 {
				base = live()
			}
			n := uint64(i)
			if i%8 == 0 {
				n = uint64(i % 56) // a few heavy keys stay tracked throughout
			}
			key = strconv.AppendUint(append(key[:0], "key"...), n, 10)
			for len(key) < cap(key) {
				key = append(key, '.')
			}
			s.Fold(string(key), 1+uint64(i)/64)
		}
		end := live()
		t.Logf("live heap %d B after 10 k folds, %d B after 300 k", base, end)
		if bound := uint64(256 << 10); end > base+bound {
			t.Errorf("live heap grew from %d to %d B over 290 k folds, more than %d", base, end, bound)
		}
		runtime.KeepAlive(s)
	})
	// A clone shares its source's key bytes but never its arena: both
	// keep folding, alternately, and each must stay its reference
	// model's twin — a shared chunk would have one's new keys written
	// over the other's.
	t.Run("clone", func(t *testing.T) {
		src, err := NewTopK(4, 8, 64, 3, 11)
		if err != nil {
			t.Fatal(err)
		}
		srcRef := newRefTopK(4, 8, 64, 3, 11)
		ranks := rankStream(false, 500, 3000, 9)
		for _, r := range ranks[:20] {
			src.Fold("page"+strconv.FormatUint(r, 10), 1)
			srcRef.Fold("page"+strconv.FormatUint(r, 10), 1)
		}
		cl, clRef := src.Clone().(*TopK), srcRef.clone()
		for i, r := range ranks[20:] {
			got, ref, e := src, srcRef, "page"+strconv.FormatUint(r, 10)
			if i%2 == 1 {
				got, ref, e = cl, clRef, "clone"+strconv.FormatUint(r, 10)
			}
			got.Fold(e, 1)
			ref.Fold(e, 1)
			checkSideState(t, "source", src)
			checkSideState(t, "clone", cl)
			if !bytes.Equal(src.AppendBinary(nil), srcRef.bytes()) || !bytes.Equal(cl.AppendBinary(nil), clRef.bytes()) {
				t.Fatalf("source or clone left its reference model after %d folds", i+1)
			}
		}
	})
}

// BenchmarkTopKFoldPerTask folds one map task's worth of records
// (2000 Zipf page draws) into a fresh clone of an empty sketch at the
// default plan's parameters — the job's shape, where every sketch is
// young, its candidate set just full and evictions frequent. (The
// layered benchmark's sketch.topk_fold_ns probe folds one long stream
// into one sketch and so measures the steady state, where scans are
// rare.)
func BenchmarkTopKFoldPerTask(b *testing.B) {
	es := taskElements()
	proto, err := NewTopK(10, 80, 256, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := proto.Clone()
		for _, e := range es {
			s.Fold(e, 1)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(es)), "ns/fold")
}
