package dfs

import (
	"io"
	"strings"
	"testing"

	"approxhadoop/internal/stats"
)

// sampled is one line a sample keeps, as LineSink.Line receives it.
type sampled struct {
	index, units, bytes int64
	line                string
}

// recorder is a LineSink that keeps copies of what it receives.
type recorder []sampled

func (r *recorder) Line(index, units, bytes int64, line []byte) {
	*r = append(*r, sampled{index, units, bytes, string(line)})
}

// refSample is the reference Block.Sample is held to: b's lines as
// Lines yields them, and line i kept iff the i-th Float64 of a source
// seeded with seed is below ratio (every line, and no draw, at ratio
// 1). It returns the kept lines and the units and bytes after the last.
func refSample(t *testing.T, b *Block, seed int64, ratio float64) (recorder, int64, int64) {
	t.Helper()
	var (
		kept         recorder
		src          = stats.NewSource(seed)
		index        int64
		units, bytes int64
	)
	if _, err := b.Lines(nil, func(line []byte) error {
		units++
		bytes += int64(len(line)) + 1
		if ratio >= 1 || src.Float64() < ratio {
			kept = append(kept, sampled{index, units, bytes, string(line)})
			units, bytes = 0, 0
		}
		index++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return kept, units, bytes
}

// sampleRatios are the ratios FuzzBlockSample draws from, the fuzzed
// one aside: all and almost none kept, the usual, and the largest
// ratio below 1, whose threshold sits next to the redraw zone.
var sampleRatios = []float64{1, 0x1p-60, 0.1, 0.25, 1 - 0x1p-53}

// chunked is a generator that writes data in pieces of 1, 2, ... step
// bytes, cycling, so lines cross write boundaries everywhere.
func chunked(data []byte, step int) LineGenerator {
	return func(_ int, _ RandSource, w io.Writer) error {
		p := data
		for k := 0; len(p) > 0; k++ {
			n := min(k%step+1, len(p))
			if _, err := w.Write(p[:n]); err != nil {
				return err
			}
			p = p[n:]
		}
		return nil
	}
}

// checkSample holds Sample on a byte block of data and on a generated
// block writing data in uneven chunks to refSample over the generated
// block, and Lines on the byte block to Lines on the generated one.
func checkSample(t *testing.T, data []byte, seed int64, ratio float64, step int) {
	t.Helper()
	byteBlock := NewByteBlock("b", 0, data, 0)
	genBlock := NewGeneratedBlock("g", 0, 1, 0, 0, chunked(data, step))
	want, wantUnits, wantBytes := refSample(t, genBlock, seed, ratio)
	lines := yieldLines(t, genBlock, nil)
	got := yieldLines(t, byteBlock, nil)
	if len(got) != len(lines) {
		t.Fatalf("byte block Lines yields %d lines, generated block %d", len(got), len(lines))
	}
	for i := range got {
		if got[i] != lines[i] {
			t.Fatalf("line %d: byte block Lines %q, generated block %q", i, got[i], lines[i])
		}
	}
	var src *stats.Source
	keep := stats.DrawThreshold(ratio)
	for _, b := range []*Block{byteBlock, genBlock} {
		if ratio < 1 {
			src = stats.NewSource(seed)
		}
		var got recorder
		units, bytes, err := b.Sample(src, keep, &got)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s, ratio %v, seed %d: %d kept lines, reference %d", b.FileName, ratio, seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s, ratio %v, seed %d: kept line %d is %+v, reference %+v", b.FileName, ratio, seed, i, got[i], want[i])
			}
		}
		if units != wantUnits || bytes != wantBytes {
			t.Fatalf("%s, ratio %v, seed %d: tail %d units %d bytes, reference %d, %d", b.FileName, ratio, seed, units, bytes, wantUnits, wantBytes)
		}
	}
}

// sampleCorpus is FuzzBlockSample's seed corpus: CRLF and bare CR
// endings, empty lines, lines over 64 bytes, a missing final newline,
// and blocks long enough to span several 64-line masks and carriage-
// return words.
func sampleCorpus() [][]byte {
	var long, mixed strings.Builder
	for i := 0; i < 300; i++ {
		long.WriteString(strings.Repeat("x", i%97))
		long.WriteByte('\n')
		switch i % 5 {
		case 0:
			mixed.WriteString("crlf\r\n")
		case 1:
			mixed.WriteString("\n")
		case 2:
			mixed.WriteString(strings.Repeat("w", 70+i%13) + "\n")
		case 3:
			mixed.WriteString("\r\n")
		default:
			mixed.WriteString("a\tb\r\r\n")
		}
	}
	mixed.WriteString("last line, no newline\r")
	return [][]byte{
		nil, []byte("\n"), []byte("\r"), []byte("\r\n"), []byte("solo"),
		[]byte("a\nb\nc"), []byte("one\r\ntwo\r\nthree\r"), []byte("\n\nmid\n\n"),
		[]byte(long.String()), []byte(mixed.String()),
	}
}

// FuzzBlockSample holds Block.Sample, over both backings, to Lines
// plus one Float64 < ratio per line: the same kept lines with the same
// indexes, units and bytes, and the same tail.
func FuzzBlockSample(f *testing.F) {
	for i, data := range sampleCorpus() {
		for pick := range uint8(len(sampleRatios) + 1) {
			f.Add(data, int64(i*31+int(pick)), pick, uint64(i)<<50, uint8(i+int(pick)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64, pick uint8, fuzzed uint64, step uint8) {
		ratio := float64(fuzzed>>11) / (1 << 53) // in [0, 1)
		if int(pick)%(len(sampleRatios)+1) < len(sampleRatios) {
			ratio = sampleRatios[int(pick)%(len(sampleRatios)+1)]
		}
		if ratio <= 0 {
			ratio = 0x1p-53
		}
		checkSample(t, data, seed, ratio, int(step)%67+1)
	})
}

// TestLineIndexBytes holds the index's counted bytes of every range of
// lines to the sum of len(line)+1 over Lines' lines, for a block whose
// carriage returns fill several bitset words.
func TestLineIndexBytes(t *testing.T) {
	data := sampleCorpus()[9]
	b := NewByteBlock("b", 0, data, 0)
	lines := yieldLines(t, b, nil)
	if b.lines.count() != len(lines) {
		t.Fatalf("index has %d lines, Lines yields %d", b.lines.count(), len(lines))
	}
	sum := make([]int64, len(lines)+1)
	for i, l := range lines {
		sum[i+1] = sum[i] + int64(len(l)) + 1
	}
	for lo := 0; lo <= len(lines); lo++ {
		for hi := lo; hi <= len(lines); hi++ {
			if got, want := b.lines.bytes(lo, hi), sum[hi]-sum[lo]; got != want {
				t.Fatalf("bytes(%d, %d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
}

// TestSampleNoBacking checks a block built by neither constructor says
// so from Sample too.
func TestSampleNoBacking(t *testing.T) {
	b := &Block{FileName: "opaque", Index: 0}
	if _, _, err := b.Sample(nil, 0, new(recorder)); err != ErrNoLineBacking {
		t.Fatalf("Sample on opaque block returned %v, want ErrNoLineBacking", err)
	}
}
