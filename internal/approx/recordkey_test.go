package approx

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"testing"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/vtime"
	"approxhadoop/internal/workload"
)

// refRead is the test's own model of a text reader, built from nothing
// the readers use: the lines are bufio.Scanner's over Block.Open(),
// line i is in the sample iff the seeded source's i-th Float64 is below
// the ratio (no draw at ratio 1 or for the precise format), and read
// time is metered in one bracket per returned record — skipped lines'
// units and bytes ride in the bracket of the next record returned, and
// a last bracket closes at the end of the block with whatever is left.
func refRead(t *testing.T, b *dfs.Block, sampling bool, ratio float64, seed int64) ([]mapreduce.Record, mapreduce.ReaderMeasure) {
	t.Helper()
	rc := b.Open()
	defer rc.Close()
	var (
		recs         []mapreduce.Record
		m            mapreduce.ReaderMeasure
		units, bytes int64
		meter        = vtime.NewDeterministic()
		rng          = stats.NewRand(seed)
	)
	scan := bufio.NewScanner(rc)
	for i := int64(0); scan.Scan(); i++ {
		line := scan.Text()
		n := int64(len(line)) + 1
		m.Items++
		m.Bytes += n
		units++
		bytes += n
		if sampling && ratio < 1 && rng.Float64() >= ratio {
			continue
		}
		m.Sampled++
		m.ReadSecs += meter.End(vtime.OpRead, units, bytes)
		units, bytes = 0, 0
		recs = append(recs, mapreduce.Record{Block: b, Index: i, Value: line})
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	m.ReadSecs += meter.End(vtime.OpRead, units, bytes)
	return recs, m
}

// frozenReaderMeasure is Measure() after the last record, rendered with
// %+v, as the pull-mode Next loop of commit 7ad74ce reported it over
// the block TestRecordKeyIsBlockAndLine reads (seed 5; byte-backed and
// generated blocks agree). Key: format/ratio.
var frozenReaderMeasure = map[string]string{
	"approx/ratio=1":   "{Items:500 Sampled:500 Bytes:2500 ReadSecs:5.249999999999993e-05}",
	"approx/ratio=0.1": "{Items:500 Sampled:49 Bytes:2500 ReadSecs:5.2499999999999975e-05}",
	"text/ratio=1":     "{Items:500 Sampled:500 Bytes:2500 ReadSecs:5.249999999999993e-05}",
	"text/ratio=0.1":   "{Items:500 Sampled:500 Bytes:2500 ReadSecs:5.249999999999993e-05}",
}

// TestRecordKeyIsBlockAndLine pins what a reader hands the mapper —
// Block, Index (counting unsampled lines too), Value, and Key()
// rendering "blockID:lineIndex" — plus Measure() and the metered
// ReadSecs, at ratio 1 and 0.1, over a generated block and a
// byte-backed copy of it, for both text formats. The expectation is
// refRead's, not a reader's, and the measure is also held to what the
// deleted pull mode reported.
func TestRecordKeyIsBlockAndLine(t *testing.T) {
	f, _ := countInput(2, 500, 11)
	gen := f.Blocks[1]
	rc := gen.Open()
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]*dfs.Block{
		"generated": gen,
		"bytes":     dfs.NewByteBlock("copy", 7, data, 500),
	}
	formats := map[string]mapreduce.InputFormat{
		"approx": ApproxTextInput{},
		"text":   mapreduce.TextInputFormat{}, // precise: ignores the ratio
	}
	const seed = 5
	for bname, b := range blocks {
		for fname, format := range formats {
			for _, ratio := range []float64{1, 0.1} {
				name := fmt.Sprintf("%s/%s/ratio=%v", bname, fname, ratio)
				want, wantM := refRead(t, b, fname == "approx", ratio, seed)
				rr, err := format.Open(b, ratio, seed)
				if err != nil {
					t.Fatal(err)
				}
				i := 0
				ok, err := rr.Push(func(rec mapreduce.Record) {
					if i < len(want) {
						w := want[i]
						if rec != w || rec.Key() != fmt.Sprintf("%s:%d", b.ID(), w.Index) {
							t.Fatalf("%s: record %d is %+v (key %q), want %+v", name, i, rec, rec.Key(), w)
						}
					}
					i++
				})
				if !ok || err != nil {
					t.Fatalf("%s: Push = %v, %v", name, ok, err)
				}
				if i != len(want) {
					t.Fatalf("%s: %d records, want %d", name, i, len(want))
				}
				got := rr.Measure()
				rr.Close()
				if got != wantM {
					t.Errorf("%s: Measure %+v, reference %+v", name, got, wantM)
				}
				frozen := frozenReaderMeasure[fmt.Sprintf("%s/ratio=%v", fname, ratio)]
				if s := fmt.Sprintf("%+v", got); s != frozen {
					t.Errorf("%s: Measure %s, pull mode at 7ad74ce reported %s", name, s, frozen)
				}
			}
		}
	}
}

// accessBlock returns the first 2000-line block of the access log,
// byte-backed as the layered benchmark materialises it.
func accessBlock(t testing.TB) *dfs.Block {
	gen := workload.ScaledAccessLog(1, 1, 2000, 1).File("access").Blocks[0]
	rc := gen.Open()
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	return dfs.NewByteBlock("access", 0, data, 2000)
}

// BenchmarkReaderPush measures the reader alone: one op is one
// 2000-line block of the access log, byte-backed as the layered
// benchmark materialises it, pushed into a sink that does nothing — so
// what is timed is reading the lines, the sampling draws, the meter
// brackets and whatever the reader does to present a record. At ratio
// 0.1 the reader visits only the lines it keeps.
func BenchmarkReaderPush(b *testing.B) {
	block := accessBlock(b)
	for _, ratio := range []float64{1, 0.1} {
		b.Run(fmt.Sprintf("ratio=%v", ratio), func(b *testing.B) {
			b.ReportAllocs()
			records := int64(0)
			for i := 0; i < b.N; i++ {
				rr, err := ApproxTextInput{}.Open(block, ratio, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if ok, err := rr.Push(func(mapreduce.Record) {}); !ok || err != nil {
					b.Fatalf("Push = %v, %v", ok, err)
				}
				records += rr.Measure().Items
				rr.Close()
			}
			b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// TestByteBlockSampledReadAllocs guards what a sampled read of a byte
// block allocates: nothing per line, and per block three — the reader,
// its source and the source's register. The reader hands itself to
// Block.Sample as the line sink, so there is no closure to allocate and
// no counter it would capture. The 2000-line block and a 200-line
// prefix of it must allocate the same.
func TestByteBlockSampledReadAllocs(t *testing.T) {
	block := accessBlock(t)
	rc := block.Open()
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	cut := 0
	for lines := 0; lines < 200; cut++ {
		if data[cut] == '\n' {
			lines++
		}
	}
	meter := vtime.NewDeterministic()
	for _, b := range []*dfs.Block{block, dfs.NewByteBlock("prefix", 0, data[:cut], 200)} {
		var sampled int64
		allocs := testing.AllocsPerRun(50, func() {
			rr, err := ApproxTextInput{}.Open(b, 0.1, 5)
			if err != nil {
				t.Fatal(err)
			}
			rr.(mapreduce.MeterSetter).SetMeter(meter)
			if ok, err := rr.Push(func(mapreduce.Record) {}); !ok || err != nil {
				t.Fatalf("Push = %v, %v", ok, err)
			}
			sampled = rr.Measure().Sampled
		})
		if sampled == 0 {
			t.Fatalf("%s: the read kept no line", b.ID())
		}
		if n := int(allocs); n != 3 {
			t.Errorf("%s: a ratio-0.1 read allocates %v times, want 3: the reader, its source and the register", b.ID(), allocs)
		}
	}
}

// TestTextFormatsShareOneReader holds TextInputFormat and
// ApproxTextInput at ratio 1 to each other: the same records and a
// bit-identical ReaderMeasure, meter brackets included, over a
// generated block and over a byte block copied from it.
func TestTextFormatsShareOneReader(t *testing.T) {
	f, _ := countInput(1, 700, 13)
	gen := f.Blocks[0]
	rc := gen.Open()
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	read := func(format mapreduce.InputFormat, b *dfs.Block) ([]mapreduce.Record, mapreduce.ReaderMeasure) {
		rr, err := format.Open(b, 1, 9)
		if err != nil {
			t.Fatal(err)
		}
		defer rr.Close()
		var recs []mapreduce.Record
		if ok, err := rr.Push(func(rec mapreduce.Record) {
			rec.Value = string(append([]byte(nil), rec.Value...))
			recs = append(recs, rec)
		}); !ok || err != nil {
			t.Fatalf("Push = %v, %v", ok, err)
		}
		return recs, rr.Measure()
	}
	for _, b := range []*dfs.Block{gen, dfs.NewByteBlock("copy", 0, data, 700)} {
		text, textM := read(mapreduce.TextInputFormat{}, b)
		apx, apxM := read(ApproxTextInput{}, b)
		if len(text) != 700 || len(apx) != len(text) {
			t.Fatalf("%s: %d text records, %d sampling records, want 700", b.ID(), len(text), len(apx))
		}
		for i := range text {
			if text[i] != apx[i] {
				t.Fatalf("%s: record %d is %+v as text, %+v sampled at ratio 1", b.ID(), i, text[i], apx[i])
			}
		}
		if textM != apxM || math.Float64bits(textM.ReadSecs) != math.Float64bits(apxM.ReadSecs) {
			t.Errorf("%s: text measure %+v, sampling at ratio 1 %+v", b.ID(), textM, apxM)
		}
	}
}

// TestGeneratedBlockReadAllocatesOneRegister guards the fixed cost of a
// small sampled map over generated input: an 80-line generated block
// read at ratio 0.25. The reader's source draws once per line and so
// allocates its 607-word register; the block's own source, which the
// generator draws from once to seed itself, must not.
func TestGeneratedBlockReadAllocatesOneRegister(t *testing.T) {
	const register = 607 * 8
	block := dfs.NewGeneratedBlock("gen", 3, 11, 0, 80, func(_ int, r dfs.RandSource, w io.Writer) error {
		base := r.Int63() % 1000
		line := make([]byte, 0, 32)
		for i := int64(0); i < 80; i++ {
			line = strconv.AppendInt(append(line[:0], 'k'), (base+i)%7, 10)
			line = strconv.AppendInt(append(line, '\t'), i, 10)
			if _, err := w.Write(append(line, '\n')); err != nil {
				return err
			}
		}
		return nil
	})
	read := func() {
		rr, err := ApproxTextInput{}.Open(block, 0.25, 5)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := rr.Push(func(mapreduce.Record) {}); !ok || err != nil {
			t.Fatalf("Push = %v, %v", ok, err)
		}
		if m := rr.Measure(); m.Items != 80 {
			t.Fatalf("read %d lines, want 80", m.Items)
		}
	}
	read()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	b := (after.TotalAlloc - before.TotalAlloc) / runs
	if b < register || b >= 2*register {
		t.Errorf("opening and reading the block allocates %d B, want one %d-byte register and change", b, register)
	}
	t.Logf("opening and reading the block allocates %d B", b)
}
