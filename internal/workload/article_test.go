package workload

import (
	"fmt"
	"math"
	"strconv"
	"testing"
)

// refSizeBin is SizeBin before its label table, kept verbatim as the
// reference. It never returns for a size above 2^62: bin overflows to
// MinInt64 and then to 0, and stays below the size.
func refSizeBin(size int) string {
	bin := 1
	for bin < size {
		bin <<= 1
	}
	return fmt.Sprintf("%dB", bin)
}

// checkSizeBin compares SizeBin with refSizeBin up to 2^62 and with the
// 2^63 label above it, where the reference does not return.
func checkSizeBin(t testing.TB, size int) {
	want := "9223372036854775808B"
	if size <= 1<<62 {
		want = refSizeBin(size)
	}
	if got := SizeBin(size); got != want {
		t.Fatalf("SizeBin(%d) = %s, want %s", size, got, want)
	}
}

// checkArticleSize compares ParseArticleSize with ParseArticle on one
// line, and the size's bin with the reference's, and reports whether
// the line was accepted.
func checkArticleSize(t testing.TB, line string) bool {
	size, ok := ParseArticleSize(line)
	a, wok := ParseArticle(line)
	if size != a.Size || ok != wok {
		t.Fatalf("ParseArticleSize(%q) = %d, %v; ParseArticle %d, %v", line, size, ok, a.Size, wok)
	}
	if ok {
		checkSizeBin(t, size)
	}
	return ok
}

func TestSizeBinMatchesReference(t *testing.T) {
	sizes := []int{math.MinInt64, math.MinInt64 + 1, -1 << 40, -2, -1, 0, 1<<62 + 1, math.MaxInt64 - 1, math.MaxInt64}
	for k := 0; k <= 62; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, size := range sizes {
		checkSizeBin(t, size)
	}
}

// articleLines are ParseArticle's accept/reject cases: the generator's
// shape, a missing or empty size, signs, spaces, non-ASCII digits, the
// int limits and the sizes on either side of 2^62, where the old
// SizeBin stopped returning.
var articleLines = []string{
	"A1\t100\tA2 A3",
	"A1\t100\t",
	"A1\t100",
	"A1\t100\t\t",
	"A1\t100\tA2\tA3",
	"\t100",
	"\t100\t",
	"A1\t\tA2",
	"A1\t",
	"A1",
	"",
	"\t",
	"\t\t",
	"garbage",
	"A1\tnotanumber\tA2",
	"A1\t+5\tA2",
	"A1\t-5",
	"A1\t+",
	"A1\t-",
	"A1\t 5",
	"A1\t5 ",
	"A1 5",
	"A1\t5\r",
	"A1\t١",
	"A1\t0",
	"A1\t007",
	"A1\t1\t",
	"A1\t4611686018427387904",
	"A1\t4611686018427387905",
	"A1\t9223372036854775807\tA2",
	"A1\t9223372036854775808\tA2",
	"A1\t-9223372036854775808",
	"A1\t-9223372036854775809",
	"A1\t99999999999999999999",
	"A1\t1_000",
	"A1\t0x10",
}

func TestParseArticleSizeMatchesParseArticle(t *testing.T) {
	for _, line := range articleLines {
		checkArticleSize(t, line)
	}
	w := WikiDump{Blocks: 2, ArticlesPerBlock: 500, LinkUniverse: 100, MeanLinks: 4, Seed: 7}
	for _, b := range w.File("wiki").Blocks {
		for _, line := range blockLines(t, b) {
			if !checkArticleSize(t, line) {
				t.Fatalf("generated line %q rejected", line)
			}
		}
	}
}

// TestParseArticleSizeMatchesParseArticleRandom drives 1 M seeded lines
// through ParseArticleSize and ParseArticle: an id, then a size field
// of mostly digits, one to nineteen of them with a sign or a stray byte
// now and then, then up to three link fields; one line in twenty has no
// tab at all.
func TestParseArticleSizeMatchesParseArticleRandom(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	const alphabet = "0123456789\t+- A"
	x := uint64(31)
	intn := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int((x >> 11) % uint64(n))
	}
	accepted := 0
	buf := make([]byte, 0, 256)
	for i := 0; i < n; i++ {
		buf = append(buf[:0], 'A')
		buf = strconv.AppendInt(buf, int64(intn(1000)), 10)
		if intn(20) != 0 {
			buf = append(buf, '\t')
		}
		for j, width := 0, intn(20); j < width; j++ {
			if intn(16) == 0 {
				buf = append(buf, alphabet[intn(len(alphabet))])
			} else {
				buf = append(buf, alphabet[intn(10)])
			}
		}
		for l := intn(4); l > 0; l-- {
			buf = append(buf, "\tA"[intn(2)])
			buf = strconv.AppendInt(buf, int64(intn(100)), 10)
		}
		if checkArticleSize(t, string(buf)) {
			accepted++
		}
	}
	t.Logf("accepted %d of %d lines", accepted, n)
	if accepted < n/10 {
		t.Errorf("ParseArticleSize accepted only %d of %d random lines", accepted, n)
	}
}

// FuzzParseArticleSize checks ParseArticleSize against ParseArticle and
// the size's bin against the reference binning.
func FuzzParseArticleSize(f *testing.F) {
	for _, line := range articleLines {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) { checkArticleSize(t, line) })
}

func BenchmarkParseArticleSize(b *testing.B) {
	w := DefaultWikiDump()
	w.Blocks, w.ArticlesPerBlock = 1, 2048
	lines := benchLines(b, w.File("wiki"))
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if size, ok := ParseArticleSize(lines[i&2047]); ok {
				benchSink += len(SizeBin(size))
			}
		}
	})
	// What WikiLength's mapper did before: the whole article, then a
	// formatted bin.
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if a, ok := ParseArticle(lines[i&2047]); ok {
				benchSink += len(refSizeBin(a.Size))
			}
		}
	})
}
