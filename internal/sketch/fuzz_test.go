package sketch

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzElements derives a deterministic element stream from raw fuzz
// bytes: each byte contributes one short element plus a weight, so the
// fuzzer controls duplication structure, ordering, and shard skew.
func fuzzElements(data []byte) ([]string, []uint64) {
	es := make([]string, 0, len(data))
	ws := make([]uint64, 0, len(data))
	for i, b := range data {
		// Element universe of 64 values with varying lengths; weight
		// 1..4 exercises the counted sketches.
		e := string([]byte{'e', b & 0x3f})
		if b&0x40 != 0 {
			e += "-long-suffix"
		}
		es = append(es, e)
		ws = append(ws, uint64(b>>6)+1)
		_ = i
	}
	return es, ws
}

// FuzzSketchMerge is the merge-order/associativity fuzz target for all
// three sketch families: it shards a fuzz-derived element stream across
// `shards` sketches, merges them left-to-right, right-to-left, and as a
// balanced tree, and requires byte-identical canonical serializations —
// the same property the job-level determinism tests rely on for any
// Workers count.
func FuzzSketchMerge(f *testing.F) {
	f.Add([]byte("approx"), uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 250, 251, 252}, uint8(5))
	f.Add(bytes.Repeat([]byte{0xa5}, 300), uint8(2))
	// The reference-model test's streams: long enough that every shard
	// fills its candidate set and evicts before the merges.
	for i, skewed := range []bool{true, false} {
		f.Add(rankBytes(rankStream(skewed, 3000, 6000, 80*7919+256)), uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, nshard uint8) {
		shards := int(nshard%8) + 2
		es, ws := fuzzElements(data)
		mks := []func() Sketch{
			func() Sketch { h, _ := NewHLL(6, 11); return h },
			func() Sketch { c, _ := NewCMS(32, 3, 11); return c },
			func() Sketch { k, _ := NewTopK(3, 9, 32, 3, 11); return k },
			func() Sketch { b, _ := NewBloom(128, 3, 11); return b },
		}
		for _, mk := range mks {
			parts := make([]Sketch, shards)
			for i := range parts {
				parts[i] = mk()
			}
			for i, e := range es {
				parts[i%shards].Fold(e, ws[i])
			}
			ltr := mk()
			for _, p := range parts {
				if err := ltr.Merge(p); err != nil {
					t.Fatalf("merge: %v", err)
				}
			}
			rtl := mk()
			for i := len(parts) - 1; i >= 0; i-- {
				if err := rtl.Merge(parts[i]); err != nil {
					t.Fatalf("merge: %v", err)
				}
			}
			tree := parts[0].Clone()
			rest := parts[1:]
			for len(rest) > 0 {
				next := make([]Sketch, 0, len(rest)/2+1)
				for i := 0; i+1 < len(rest); i += 2 {
					c := rest[i].Clone()
					if err := c.Merge(rest[i+1]); err != nil {
						t.Fatalf("merge: %v", err)
					}
					next = append(next, c)
				}
				if len(rest)%2 == 1 {
					next = append(next, rest[len(rest)-1])
				}
				if len(next) == 1 {
					if err := tree.Merge(next[0]); err != nil {
						t.Fatalf("merge: %v", err)
					}
					break
				}
				rest = next
			}
			a, b, c := ltr.AppendBinary(nil), rtl.AppendBinary(nil), tree.AppendBinary(nil)
			if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
				t.Fatalf("%s: merge order changed serialized bytes (%d/%d/%d)",
					ltr.Kind(), len(a), len(b), len(c))
			}
		}
	})
}

// fuzzKey maps one fuzz byte to a key of the shapes the candidate side
// state treats differently: the empty key, keys sharing their first
// eight bytes (estimate ties fall through to the byte compare), two
// keys longer than an arena chunk (each gets a chunk of its own), and
// two-byte keys for the rest.
func fuzzKey(b byte) string {
	switch {
	case b == 0:
		return ""
	case b == 1 || b == 2:
		return strings.Repeat("L", arenaChunk+int(b)*7) + string(rune('a'+b))
	case b%4 == 3:
		return "prefix8_" + string([]byte{b})
	}
	return string([]byte{'e', b})
}

// FuzzTopKFold drives TopK and the reference model with one
// fuzz-derived stream and requires identical AppendBinary bytes and a
// consistent side state after every operation. cfg picks the candidate
// cap and the grid width; each data byte is one operation: most fold a
// key (every third into a second pair, merged in later) under a weight
// of 0..3, every 29th clones, decodes or merges.
func FuzzTopKFold(f *testing.F) {
	f.Add([]byte("approx"), uint8(0))
	f.Add([]byte{0, 0, 1, 2, 1, 2, 3, 7, 11, 3, 250, 251, 252}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xa5, 3, 7, 11, 15, 19, 23}, 60), uint8(6))
	// FuzzSketchMerge's streams, at 80 candidates over widths 256 and 255.
	for i, skewed := range []bool{true, false} {
		f.Add(rankBytes(rankStream(skewed, 3000, 6000, 80*7919+256)), uint8(3+4*(2-i)))
	}
	f.Fuzz(func(t *testing.T, data []byte, cfg uint8) {
		maxCand := []uint32{1, 2, 8, 80}[cfg&3]
		width := []uint32{2, 255, 256}[cfg>>2%3]
		got, err := NewTopK(1, maxCand, width, 3, 11)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTopK(1, maxCand, width, 3, 11)
		side, _ := NewTopK(1, maxCand, width, 3, 11)
		sideRef := newRefTopK(1, maxCand, width, 3, 11)
		var buf []byte
		for i, b := range data {
			w := (uint64(b>>6) + uint64(i)) % 4
			switch {
			case i%29 == 28 && b%3 == 0:
				got = got.Clone().(*TopK)
				ref = ref.clone()
			case i%29 == 28 && b%3 == 1:
				dec, err := Decode(got.AppendBinary(nil))
				if err != nil {
					t.Fatalf("decode at %d: %v", i, err)
				}
				got = dec.(*TopK)
			case i%29 == 28:
				if err := got.Merge(side); err != nil {
					t.Fatalf("merge at %d: %v", i, err)
				}
				ref.merge(sideRef)
			case i%3 == 0:
				e := fuzzKey(b + 128)
				side.Fold(e, w)
				sideRef.Fold(e, w)
				checkSideState(t, "side", side)
			default:
				e := fuzzKey(b)
				got.Fold(e, w)
				ref.Fold(e, w)
			}
			checkSideState(t, "receiver", got)
			buf = got.AppendBinary(buf[:0])
			if !bytes.Equal(buf, ref.bytes()) {
				t.Fatalf("bytes differ from the reference after op %d (byte %d, cap %d, width %d, %d vs %d candidates)",
					i, b, maxCand, width, len(got.list), len(ref.cand))
			}
		}
	})
}

// FuzzSketchDecode feeds arbitrary bytes to Decode: it must never
// panic, and anything it accepts must re-serialize to the exact input
// (canonical-form fixed point).
func FuzzSketchDecode(f *testing.F) {
	for _, mk := range []func() Sketch{
		func() Sketch { h, _ := NewHLL(6, 11); return h },
		func() Sketch { c, _ := NewCMS(32, 3, 11); return c },
		func() Sketch { k, _ := NewTopK(3, 9, 32, 3, 11); return k },
		func() Sketch { b, _ := NewBloom(128, 3, 11); return b },
	} {
		s := mk()
		for _, e := range []string{"a", "bb", "ccc", "dddd"} {
			s.Fold(e, 2)
		}
		f.Add(s.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 1, 6, 0})
	f.Add(paddedCMS())
	f.Add(hugeKeyLenTopK())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(data, s.AppendBinary(nil)) {
			t.Fatalf("accepted non-canonical encoding (kind %s)", s.Kind())
		}
	})
}

// paddedCMS is the input FuzzSketchDecode found the padded-varint
// acceptance with: an empty 2x1 Count-Min sketch whose last zero
// counter is spelled 0x80 0x00 instead of 0x00.
func paddedCMS() []byte {
	c, _ := NewCMS(2, 1, 11)
	b := c.AppendBinary(nil)
	return append(b[:len(b)-1:len(b)-1], 0x80, 0x00)
}

// hugeKeyLenTopK is an empty TopK announcing one candidate of 2^63
// bytes: a length that is negative as an int, and so slipped under the
// bounds check and panicked the slice expression until PR 22.
func hugeKeyLenTopK() []byte {
	k, _ := NewTopK(3, 9, 32, 3, 11)
	b := k.AppendBinary(nil)
	b[len(b)-4] = 1
	return appendUvarint(b, 1<<63)
}

// TestDecodeRejectsPaddedVarints: every value's minimal encoding is
// read back, and the same value padded out to any length up to the
// ten-byte maximum is refused — by readUvarint, and by Decode when it
// sits inside an otherwise valid sketch.
func TestDecodeRejectsPaddedVarints(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 21, 1<<56 - 1, 1 << 63, ^uint64(0)} {
		min := appendUvarint(nil, v)
		if got, next, ok := readUvarint(min, 0); !ok || got != v || next != len(min) {
			t.Errorf("minimal %d-byte encoding of %d: got %d, next %d, ok %v", len(min), v, got, next, ok)
		}
		for n := len(min) + 1; n <= 10; n++ {
			padded := append([]byte(nil), min...)
			padded[len(padded)-1] |= 0x80
			for len(padded) < n-1 {
				padded = append(padded, 0x80)
			}
			padded = append(padded, 0x00)
			if got, _, ok := readUvarint(padded, 0); ok {
				t.Errorf("%d padded to %d bytes accepted as %d", v, n, got)
			}
		}
	}
	if s, err := Decode(paddedCMS()); err == nil {
		t.Errorf("Decode accepted a padded varint (kind %s)", s.Kind())
	}
}
