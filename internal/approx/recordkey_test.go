package approx

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/workload"
)

// TestRecordKeyIsBlockAndLine pins what Record.Key() renders to the
// string the readers used to format per record: "blockID:lineIndex",
// the index counting unsampled lines too — in pull and push mode, at
// ratio 1 and 0.1, over a generated block and a byte-backed copy of it,
// for both text formats. The expectation is built from the block's
// bytes and the seeded draw sequence, not from a reader.
func TestRecordKeyIsBlockAndLine(t *testing.T) {
	f, _ := countInput(2, 500, 11)
	gen := f.Blocks[1]
	rc := gen.Open()
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	blocks := map[string]*dfs.Block{
		"generated": gen,
		"bytes":     dfs.NewByteBlock("copy", 7, data, int64(len(lines))),
	}
	formats := map[string]mapreduce.InputFormat{
		"approx": ApproxTextInput{},
		"text":   mapreduce.TextInputFormat{}, // precise: ignores the ratio
	}
	const seed = 5
	for bname, b := range blocks {
		for fname, format := range formats {
			for _, ratio := range []float64{1, 0.1} {
				var want []string
				rng := stats.NewRand(seed)
				for i, line := range lines {
					if fname == "approx" && ratio < 1 && rng.Float64() >= ratio {
						continue
					}
					want = append(want, fmt.Sprintf("%s:%d=%s", b.ID(), i, line))
				}
				for _, push := range []bool{false, true} {
					rr, err := format.Open(b, ratio, seed)
					if err != nil {
						t.Fatal(err)
					}
					var got []string
					collect := func(rec mapreduce.Record) { got = append(got, rec.Key()+"="+rec.Value) }
					if push {
						if ok, err := rr.(mapreduce.RecordPusher).Push(collect); !ok || err != nil {
							t.Fatalf("Push = %v, %v", ok, err)
						}
					} else {
						for {
							rec, ok, err := rr.Next()
							if err != nil {
								t.Fatal(err)
							}
							if !ok {
								break
							}
							collect(rec)
						}
					}
					rr.Close()
					name := fmt.Sprintf("%s/%s/ratio=%v/push=%v", bname, fname, ratio, push)
					if len(got) != len(want) {
						t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: record %d is %q, want %q", name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkReaderPush measures the push-mode reader alone: one op is
// one 2000-line block of the access log, byte-backed as the layered
// benchmark materialises it, pushed into a sink that does nothing — so
// what is timed is line splitting, the sampling draw, the meter
// brackets and whatever the reader does to present a record.
func BenchmarkReaderPush(b *testing.B) {
	gen := workload.ScaledAccessLog(1, 1, 2000, 1).File("access").Blocks[0]
	rc := gen.Open()
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		b.Fatal(err)
	}
	block := dfs.NewByteBlock("access", 0, data, 2000)
	for _, ratio := range []float64{1, 0.1} {
		b.Run(fmt.Sprintf("ratio=%v", ratio), func(b *testing.B) {
			b.ReportAllocs()
			records := int64(0)
			for i := 0; i < b.N; i++ {
				rr, err := ApproxTextInput{}.Open(block, ratio, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if ok, err := rr.(mapreduce.RecordPusher).Push(func(mapreduce.Record) {}); !ok || err != nil {
					b.Fatalf("Push = %v, %v", ok, err)
				}
				records += rr.Measure().Items
				rr.Close()
			}
			b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
