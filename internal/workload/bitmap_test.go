package workload

import (
	"strings"
	"testing"

	"approxhadoop/internal/zerocopy"
)

// hostile is the filler the tab-bitmap tests put around their tabs.
// '\x08' is a tab with its low bit cleared: a borrow-based zero test
// that read every lane would borrow out of a tab's lane and flag a
// '\x08' above it as a second tab. '\x0a' is a tab's other neighbour,
// '\x89' differs from a tab in the high bit alone, '\x80' and '\xff'
// carry that bit too, and '\x00', '\x01' and '\x7f' are the bytes at
// the ends of the low seven bits' range.
const hostile = "\x08\x0a\x80\xff\x00\x01\x89\x7f"

// tabBitsByLoop is tabBits a byte at a time.
func tabBitsByLoop(s string) (m uint64) {
	for i := 0; i < len(s); i++ {
		if s[i] == '\t' {
			m |= 1 << i
		}
	}
	return m
}

// TestTabBitsMatchesByteLoop checks the bitmap against a byte loop for
// every line length it takes, 8 to 64, and every placement of up to
// three tabs, over hostile filler: each of its bytes is the one right
// after a tab for some placement. The parsers send shorter and longer
// lines to the cutters, which the reference tests cover.
func TestTabBitsMatchesByteLoop(t *testing.T) {
	buf := make([]byte, 64)
	checked := 0
	for n := 8; n <= len(buf); n++ {
		line := buf[:n]
		fill := func(i int) { line[i] = hostile[(i+n)%len(hostile)] }
		for i := range line {
			fill(i)
		}
		check := func() {
			checked++
			s := zerocopy.String(line)
			if got, want := tabBits(s), tabBitsByLoop(s); got != want {
				t.Fatalf("tabBits(%q) = %#x, byte loop %#x", s, got, want)
			}
		}
		check()
		for a := 0; a < n; a++ {
			line[a] = '\t'
			check()
			for b := a + 1; b < n; b++ {
				line[b] = '\t'
				check()
				for c := b + 1; c < n; c++ {
					line[c] = '\t'
					check()
					fill(c)
				}
				fill(b)
			}
			fill(a)
		}
	}
	t.Logf("%d lines checked", checked)
}

// bitmapEdges are the offsets where a tab crosses a word or a tier of
// tabBits: the last byte of a word and the first of the next, and the
// 32- and 64-byte tiers.
var bitmapEdges = []int{7, 8, 15, 16, 31, 32, 63, 64}

// bitmapLines walks each parser's fields across the bitmap's edges: a
// text field of every width from 0 to 66 in every shape (so the line
// runs through every length from 8 to 72 and each later tab through
// every offset), each integer field at every width from 0 to 66 (so it
// leaves the one-word path at nine digits and the cutters' at nineteen),
// and every way an integer field is not one to eight plain digits.
func bitmapLines() []string {
	pad := func(n int, fill string) string {
		return strings.Repeat(fill, n/len(fill)+1)[:n]
	}
	var lines []string
	for n := 0; n <= 66; n++ {
		p, d := pad(n, "p"+hostile), pad(n, "9")
		lines = append(lines,
			"1\t"+p+"\tg\t5",
			"12345678\t"+p+"\tg\t87654321",
			"123456789\t"+p+"\tg\t1",
			"1\t"+p+"\tg\t123456789",
			"1\tp\t"+p+"\t-5",
			"+1\tp\t"+p+"\t5",
			"1\tp\t"+p+"\t",
			"\tp\t"+p+"\t5",
			"1\tp\t"+p+"\t5\t",
			"1\tp\tg\t5"+p,
			"5\tproj\t"+p+"\tpage",
			"5\tproj\ted\t"+p+"\tmore\ttabs",
			"c\t35\t"+p+"\t100\tua\t-",
			"c\t35\t/p\t100\t"+p+"\tsqlinj",
			"c"+p+"\t167\t/p\t12345678\tua\tx",
			"c\t168\t/p\t"+p+"\tua\tx",
			"c\t+35\t"+p+"\t100\tua\t-",
			"c\t35\t/p\t-100\t"+p+"\t-",
			"seed\t"+d,
			"seed\t"+d+"\t",
			"seed"+p+"\t1",
			d+"\tp\tg\t1",
			"1\tp\tg\t"+d,
			"0"+d+"\tp\tg\t1",
			"c\t"+d+"\t/p\t1\tua\t-",
			"c\t1\t/p\t"+d+"\tua\t-",
			d+"\tproj\ted\tpage",
		)
		// A tab at each edge: the field before it padded to land there.
		for _, o := range bitmapEdges {
			at := func(prefix, suffix string) {
				if o >= len(prefix) {
					lines = append(lines, prefix+pad(o-len(prefix), "q"+hostile)+suffix)
				}
			}
			at("1\t", "\tg\t"+d)
			at("1\tp\t", "\t5")
			at("5\tproj\t", "\tpage"+p)
			at("c\t5\t", "\t1\tua\t"+p)
			at("c\t5\t/p\t1\t", "\t"+p)
			lines = append(lines,
				pad(o, "1")+"\tp\tg\t"+d,
				"1\tp\tg\t"+pad(o, "7")+p,
				"seed\t"+pad(o, "3"),
			)
		}
	}
	return lines
}

func TestParseMatchesReferenceBitmapTable(t *testing.T) {
	lines := bitmapLines()
	var accepted [4]int
	for _, line := range lines {
		for p, ok := range checkAgainstRef(t, line) {
			if ok {
				accepted[p]++
			}
		}
	}
	t.Logf("accepted of %d lines: access %d, edit %d, web %d, seed %d", len(lines), accepted[0], accepted[1], accepted[2], accepted[3])
	for i, name := range []string{"ParseAccess", "ParseEdit", "ParseWebAccess", "ParseSeed"} {
		if accepted[i] == 0 {
			t.Errorf("%s accepted none of the table's lines", name)
		}
	}
}

// TestParseMatchesReferenceBitmapRandom drives 1 M seeded lines of 8 to
// 72 bytes through every parser and its reference. Lines are built
// field by field as in TestParseMatchesReferenceRandom, over an alphabet
// that adds the hostile bytes to digits, signs and tabs; one line in two
// then has a tab forced onto one of the bitmap's edges.
func TestParseMatchesReferenceBitmapRandom(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	const alphabet = "0123456789\t+-a" + hostile
	x := uint64(27)
	intn := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int((x >> 11) % uint64(n))
	}
	var accepted [4]int
	buf := make([]byte, 0, 256)
	for i := 0; i < n; {
		buf = buf[:0]
		fields := 1 + intn(7)
		if intn(5) == 0 {
			buf = append(buf, "seed\t"...)
			fields = 1 + intn(2)
		}
		for f := 0; f < fields; f++ {
			if f > 0 {
				buf = append(buf, '\t')
			}
			width := intn(10)
			if intn(4) == 0 {
				width = intn(22)
			}
			for j := 0; j < width; j++ {
				if intn(10) == 0 {
					buf = append(buf, alphabet[intn(len(alphabet))])
				} else {
					buf = append(buf, alphabet[intn(10)])
				}
			}
		}
		if len(buf) < 8 || len(buf) > 72 {
			continue
		}
		if o := bitmapEdges[intn(len(bitmapEdges))]; intn(2) == 0 && o < len(buf) {
			buf[o] = '\t'
		}
		i++
		for p, ok := range checkAgainstRef(t, string(buf)) {
			if ok {
				accepted[p]++
			}
		}
	}
	t.Logf("accepted of %d lines: access %d, edit %d, web %d, seed %d", n, accepted[0], accepted[1], accepted[2], accepted[3])
	for i, name := range []string{"ParseAccess", "ParseEdit", "ParseWebAccess", "ParseSeed"} {
		if accepted[i] < n/1000 {
			t.Errorf("%s accepted only %d of %d random lines: the generator no longer exercises its accept path", name, accepted[i], n)
		}
	}
}
