package sketch

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"
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
	w := &TopK{k: t.k, maxCand: t.maxCand, cms: t.cms, cand: map[string]struct{}{}}
	for c := range t.cand {
		w.track(candidate{key: c, hash: hash64(t.cms.seed, c)})
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

// checkSideState fails unless the membership map and the scan list of
// t hold the same keys, each list entry beside its own hash.
func checkSideState(t *testing.T, label string, k *TopK) {
	t.Helper()
	if len(k.cand) != len(k.list) {
		t.Fatalf("%s: %d keys in the set, %d in the list", label, len(k.cand), len(k.list))
	}
	for _, c := range k.list {
		if _, ok := k.cand[c.key]; !ok {
			t.Fatalf("%s: list key %q missing from the set", label, c.key)
		}
		if c.hash != hash64(k.cms.seed, c.key) {
			t.Fatalf("%s: stale hash beside %q", label, c.key)
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

// BenchmarkTopKFoldPerTask folds one map task's worth of records
// (2000 Zipf page draws) into a fresh clone of an empty sketch at the
// default plan's parameters — the job's shape, where every sketch is
// young, its candidate set just full and evictions frequent. (The
// layered benchmark's sketch.topk_fold_ns probe folds one long stream
// into one sketch and so measures the steady state, where scans are
// rare.)
func BenchmarkTopKFoldPerTask(b *testing.B) {
	ranks := rankStream(true, 20000, 2000, 1)
	es := make([]string, len(ranks))
	for i, r := range ranks {
		es[i] = "page" + strconv.FormatUint(r+1, 10)
	}
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
