package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// elems returns n deterministic element strings drawn from a universe
// of size u with the given seed (duplicates expected when n > u).
func elems(n, u int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = "elem" + strconv.Itoa(rng.Intn(u))
	}
	return out
}

func distinct(es []string) int {
	set := map[string]struct{}{}
	for _, e := range es {
		set[e] = struct{}{}
	}
	return len(set)
}

func newTestSketches(t *testing.T) map[string]func() Sketch {
	t.Helper()
	return map[string]func() Sketch{
		"hll": func() Sketch {
			h, err := NewHLL(11, 7)
			if err != nil {
				t.Fatalf("NewHLL: %v", err)
			}
			return h
		},
		"cms": func() Sketch {
			c, err := NewCMS(256, 3, 7)
			if err != nil {
				t.Fatalf("NewCMS: %v", err)
			}
			return c
		},
		"topk": func() Sketch {
			k, err := NewTopK(8, 32, 256, 3, 7)
			if err != nil {
				t.Fatalf("NewTopK: %v", err)
			}
			return k
		},
		"bloom": func() Sketch {
			b, err := NewBloom(4096, 4, 7)
			if err != nil {
				t.Fatalf("NewBloom: %v", err)
			}
			return b
		},
	}
}

// TestRoundTrip serializes each kind and decodes it back, checking the
// bytes re-serialize identically (fixed point) at several fill levels,
// including the HLL sparse→dense boundary.
func TestRoundTrip(t *testing.T) {
	for name, mk := range newTestSketches(t) {
		for _, n := range []int{0, 1, 17, 400, 5000} {
			s := mk()
			for _, e := range elems(n, n/2+1, 42) {
				s.Fold(e, 3)
			}
			raw := s.AppendBinary(nil)
			if got := s.SizeBytes(); got != len(raw) {
				t.Errorf("%s n=%d: SizeBytes=%d, serialized len=%d", name, n, got, len(raw))
			}
			dec, err := Decode(raw)
			if err != nil {
				t.Fatalf("%s n=%d: Decode: %v", name, n, err)
			}
			if dec.Kind() != s.Kind() {
				t.Fatalf("%s: kind mismatch after decode", name)
			}
			re := dec.AppendBinary(nil)
			if !bytes.Equal(raw, re) {
				t.Errorf("%s n=%d: decode+re-encode changed bytes (%d vs %d)", name, n, len(raw), len(re))
			}
			// A decoded sketch must keep working: fold + merge.
			dec.Fold("post-decode", 1)
			if err := dec.Merge(s); err != nil {
				t.Errorf("%s: merge into decoded copy: %v", name, err)
			}
		}
	}
}

// TestMergeOrderIndependence splits one element stream into shards and
// merges the shard sketches in several orders and shapes (left fold,
// reversed, balanced tree), requiring byte-identical serializations.
func TestMergeOrderIndependence(t *testing.T) {
	es := elems(6000, 900, 9)
	for name, mk := range newTestSketches(t) {
		const shards = 7
		parts := make([]Sketch, shards)
		for i := range parts {
			parts[i] = mk()
		}
		for i, e := range es {
			parts[i%shards].Fold(e, uint64(i%5+1))
		}
		merge := func(order []int) []byte {
			acc := mk()
			for _, i := range order {
				if err := acc.Merge(parts[i].Clone()); err != nil {
					t.Fatalf("%s: merge: %v", name, err)
				}
			}
			return acc.AppendBinary(nil)
		}
		fwd := merge([]int{0, 1, 2, 3, 4, 5, 6})
		rev := merge([]int{6, 5, 4, 3, 2, 1, 0})
		shuf := merge([]int{3, 0, 6, 1, 5, 2, 4})
		if !bytes.Equal(fwd, rev) || !bytes.Equal(fwd, shuf) {
			t.Errorf("%s: merge order changed serialized bytes", name)
		}
		// Tree-shaped merge: ((0+1)+(2+3)) + ((4+5)+6).
		pair := func(a, b Sketch) Sketch {
			c := a.Clone()
			if err := c.Merge(b); err != nil {
				t.Fatalf("%s: merge: %v", name, err)
			}
			return c
		}
		tree := pair(pair(pair(parts[0], parts[1]), pair(parts[2], parts[3])),
			pair(pair(parts[4], parts[5]), parts[6]))
		if !bytes.Equal(fwd, tree.AppendBinary(nil)) {
			t.Errorf("%s: tree-shaped merge changed serialized bytes", name)
		}
		// Merging must also equal folding everything into one sketch
		// for the register/counter state (HLL, CMS, Bloom are exactly
		// mergeable; TopK candidate sets legitimately differ by cap).
		if name != "topk" {
			one := mk()
			for i, e := range es {
				one.Fold(e, uint64(i%5+1))
			}
			if !bytes.Equal(fwd, one.AppendBinary(nil)) {
				t.Errorf("%s: sharded merge differs from single-sketch fold", name)
			}
		}
	}
}

// TestMergeMismatch checks parameter/seed/kind mismatches are rejected.
func TestMergeMismatch(t *testing.T) {
	h1, _ := NewHLL(11, 7)
	h2, _ := NewHLL(12, 7)
	h3, _ := NewHLL(11, 8)
	c1, _ := NewCMS(256, 3, 7)
	if err := h1.Merge(h2); err != ErrMismatch {
		t.Errorf("precision mismatch: got %v", err)
	}
	if err := h1.Merge(h3); err != ErrMismatch {
		t.Errorf("seed mismatch: got %v", err)
	}
	if err := h1.Merge(c1); err != ErrMismatch {
		t.Errorf("kind mismatch: got %v", err)
	}
	if err := c1.Merge(h1); err != ErrMismatch {
		t.Errorf("kind mismatch: got %v", err)
	}
}

// TestHLLAccuracy checks the estimate lands within the advertised
// relative error (with generous sigma slack) across cardinalities that
// exercise linear counting, the sparse form, and the dense form.
func TestHLLAccuracy(t *testing.T) {
	for _, card := range []int{10, 100, 1000, 20000, 200000} {
		h, _ := NewHLL(11, 7)
		for i := 0; i < card; i++ {
			h.Fold("item-"+strconv.Itoa(i), 1)
		}
		est := h.Estimate()
		rel := math.Abs(est-float64(card)) / float64(card)
		if rel > 5*h.RelStdErr() {
			t.Errorf("cardinality %d: estimate %.0f, relative error %.3f > 5×%.3f",
				card, est, rel, h.RelStdErr())
		}
	}
}

// TestCMSBounds checks the fundamental CMS guarantees on a skewed
// stream: no underestimates, and overestimates within ε·W.
func TestCMSBounds(t *testing.T) {
	c, _ := NewCMS(256, 3, 7)
	truth := map[string]uint64{}
	for i, e := range elems(30000, 2000, 5) {
		n := uint64(i%7 + 1)
		c.Fold(e, n)
		truth[e] += n
	}
	bound := c.ErrBound()
	over := 0
	for e, want := range truth {
		got := c.Count(e)
		if got < want {
			t.Fatalf("CMS underestimated %q: got %d want %d", e, got, want)
		}
		if float64(got-want) > bound {
			over++
		}
	}
	// ε·W holds per query with probability ≥ 1−e^−depth ≈ 95% at
	// depth 3; allow the expected tail.
	if frac := float64(over) / float64(len(truth)); frac > 0.1 {
		t.Errorf("%.1f%% of queries exceeded the ε·W bound (expected ≤ ~5%%)", frac*100)
	}
}

// TestTopKRecall checks heavy hitters on a skewed stream: every element
// whose true count clears the ε·W noise floor by a margin must be
// reported, in the deterministic (count desc, key asc) order.
func TestTopKRecall(t *testing.T) {
	tk, err := NewTopK(10, 80, 512, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy elements get count 1000·(21−i); light ones count 1.
	truth := map[string]uint64{}
	for i := 1; i <= 20; i++ {
		e := "heavy-" + strconv.Itoa(i)
		truth[e] = uint64(1000 * (21 - i))
	}
	rng := rand.New(rand.NewSource(3))
	stream := make([]string, 0, 40000)
	for e, n := range truth {
		for j := uint64(0); j < n; j++ {
			stream = append(stream, e)
		}
	}
	for i := 0; i < 8000; i++ {
		stream = append(stream, "light-"+strconv.Itoa(rng.Intn(4000)))
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	for _, e := range stream {
		tk.Fold(e, 1)
	}
	top := tk.Top(10)
	if len(top) != 10 {
		t.Fatalf("Top(10) returned %d entries", len(top))
	}
	for i, ent := range top {
		want := "heavy-" + strconv.Itoa(i+1)
		if ent.Key != want {
			t.Errorf("rank %d: got %q (count %d), want %q", i+1, ent.Key, ent.Count, want)
		}
		if ent.Count < truth[want] {
			t.Errorf("%s: CMS estimate %d below true count %d", want, ent.Count, truth[want])
		}
		if i > 0 && weaker(top[i-1].Count, top[i-1].Key, ent.Count, ent.Key) {
			t.Errorf("Top order violated at rank %d", i+1)
		}
	}
}

// TestBloom checks the no-false-negative guarantee and a sane FPR.
func TestBloom(t *testing.T) {
	f, _ := NewBloom(1<<13, 4, 7)
	const n = 500
	for i := 0; i < n; i++ {
		f.Fold("member-"+strconv.Itoa(i), 1)
	}
	for i := 0; i < n; i++ {
		if !f.Contains("member-" + strconv.Itoa(i)) {
			t.Fatalf("false negative for member-%d", i)
		}
	}
	fp := 0
	const probes = 5000
	for i := 0; i < probes; i++ {
		if f.Contains("absent-" + strconv.Itoa(i)) {
			fp++
		}
	}
	if rate, bound := float64(fp)/probes, f.FPR(); rate > 3*bound+0.01 {
		t.Errorf("observed FPR %.4f far above estimate %.4f", rate, bound)
	}
	if est := f.CountEstimate(); math.Abs(est-n)/n > 0.15 {
		t.Errorf("CountEstimate %.0f, want ≈%d", est, n)
	}
	if se := f.CountStdErr(); se <= 0 || se > n {
		t.Errorf("CountStdErr %.1f out of range", se)
	}
}

// TestDecodeCorrupt checks truncations and mutations of valid sketches
// error out instead of panicking.
func TestDecodeCorrupt(t *testing.T) {
	for name, mk := range newTestSketches(t) {
		s := mk()
		for _, e := range elems(100, 40, 1) {
			s.Fold(e, 2)
		}
		raw := s.AppendBinary(nil)
		for cut := 0; cut < len(raw); cut += 3 {
			if _, err := Decode(raw[:cut]); err == nil {
				t.Errorf("%s: truncation at %d decoded successfully", name, cut)
			}
		}
		bad := append([]byte(nil), raw...)
		bad[1] = 99 // version
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: bad version decoded successfully", name)
		}
	}
	if _, err := Decode(nil); err == nil {
		t.Error("nil input decoded successfully")
	}
}

// TestCloneIndependence checks Clone produces a deep copy.
func TestCloneIndependence(t *testing.T) {
	for name, mk := range newTestSketches(t) {
		s := mk()
		for _, e := range elems(300, 100, 2) {
			s.Fold(e, 1)
		}
		before := s.AppendBinary(nil)
		c := s.Clone()
		for _, e := range elems(300, 100, 99) {
			c.Fold(e, 4)
		}
		if !bytes.Equal(before, s.AppendBinary(nil)) {
			t.Errorf("%s: folding into a clone mutated the original", name)
		}
	}
}

// TestBadParams checks constructor validation.
func TestBadParams(t *testing.T) {
	if _, err := NewHLL(3, 0); err != ErrBadParams {
		t.Errorf("HLL p=3: got %v", err)
	}
	if _, err := NewHLL(17, 0); err != ErrBadParams {
		t.Errorf("HLL p=17: got %v", err)
	}
	if _, err := NewCMS(1, 3, 0); err != ErrBadParams {
		t.Errorf("CMS width=1: got %v", err)
	}
	if _, err := NewTopK(0, 8, 64, 2, 0); err != ErrBadParams {
		t.Errorf("TopK k=0: got %v", err)
	}
	if _, err := NewTopK(9, 8, 64, 2, 0); err != ErrBadParams {
		t.Errorf("TopK cap<k: got %v", err)
	}
	if _, err := NewBloom(8, 2, 0); err != ErrBadParams {
		t.Errorf("Bloom 8 bits: got %v", err)
	}
}

// Count returns the (over-)estimate of element's folded weight.
func (c *CMS) Count(element string) uint64 {
	return c.countHash(hash64(c.seed, element))
}

// Contains reports whether element may have been folded: false is
// definitive, true is correct up to FPR.
func (f *Bloom) Contains(element string) bool {
	h := hash64(f.seed, element)
	for i := uint64(0); i < uint64(f.hashes); i++ {
		bit := doubleHash(h, i, f.mbits)
		if f.words[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// FPR returns the current false-positive rate estimate (ones/m)^hashes.
func (f *Bloom) FPR() float64 {
	load := float64(f.Ones()) / float64(f.mbits)
	return math.Pow(load, float64(f.hashes))
}
