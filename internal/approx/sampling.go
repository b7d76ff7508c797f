package approx

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/vtime"
	"approxhadoop/internal/zerocopy"
)

// ApproxTextInput is the sampling analog of TextInputFormat (the
// paper's ApproxTextInputFormat): it parses every line of the block —
// input data sampling cannot avoid the read I/O, which is why task
// dropping saves more time (Section 5.2) — but returns each record
// with probability sampleRatio. The record reader tracks both the
// block's total unit count M and the sampled count m, which the
// framework forwards to reducers for the multi-stage estimators.
type ApproxTextInput struct{}

// Open implements mapreduce.InputFormat. Like TextInputFormat, the
// reader supports pull mode (Next, durable records) and push mode
// (Push, zero-copy records over the block's line backing); both draw
// the identical per-line sample decisions from the same seeded RNG.
//
//approx:compute
func (ApproxTextInput) Open(b *dfs.Block, sampleRatio float64, seed int64) (mapreduce.RecordReader, error) {
	if b == nil {
		return nil, fmt.Errorf("approx: nil block")
	}
	if sampleRatio <= 0 || sampleRatio > 1 {
		sampleRatio = 1
	}
	r := &samplingReader{block: b, ratio: sampleRatio, meter: vtime.NewDeterministic()}
	if sampleRatio < 1 {
		// sampleLine draws only below ratio 1; a reader that never
		// draws skips the source's 5.4 KB register.
		r.rng = stats.NewRand(seed)
	}
	return r, nil
}

type samplingReader struct {
	block *dfs.Block
	rc    io.ReadCloser // pull mode only, opened lazily
	scan  *bufio.Scanner
	ratio float64
	rng   *rand.Rand // nil at ratio 1, where no line is ever drawn
	meter vtime.Meter
	m     mapreduce.ReaderMeasure
	bufs  *mapreduce.BufList
}

// SetMeter implements mapreduce.MeterSetter.
func (r *samplingReader) SetMeter(m vtime.Meter) { r.meter = m }

// SetBuffers implements mapreduce.BufferLender.
func (r *samplingReader) SetBuffers(l *mapreduce.BufList) { r.bufs = l }

// sampleLine accounts one scanned line and reports whether it is in the
// sample. Skipped lines still count toward Items and Bytes — and toward
// the metered read cost — because the block is read in full either way.
//
//approx:hotpath
func (r *samplingReader) sampleLine(n int64, units, bytes *int64) bool {
	r.m.Items++
	r.m.Bytes += n + 1
	*units++
	*bytes += n + 1
	if r.ratio < 1 && r.rng.Float64() >= r.ratio {
		return false // unit not in the sample
	}
	r.m.Sampled++
	return true
}

// Next scans forward to the next sampled line.
//
//approx:compute
func (r *samplingReader) Next() (mapreduce.Record, bool, error) {
	if r.scan == nil {
		r.rc = r.block.Open()
		r.scan = newLineScanner(r.rc)
	}
	r.meter.Begin(vtime.OpRead)
	var units, bytes int64
	for r.scan.Scan() {
		line := r.scan.Text()
		idx := r.m.Items
		if !r.sampleLine(int64(len(line)), &units, &bytes) {
			continue
		}
		r.m.ReadSecs += r.meter.End(vtime.OpRead, units, bytes)
		return mapreduce.Record{Block: r.block, Index: idx, Value: line}, true, nil
	}
	r.m.ReadSecs += r.meter.End(vtime.OpRead, units, bytes)
	if err := r.scan.Err(); err != nil {
		return mapreduce.Record{}, false, fmt.Errorf("approx: reading %s: %w", r.block.ID(), err)
	}
	return mapreduce.Record{}, false, nil
}

// newLineScanner builds a scanner with a generous line-length cap.
func newLineScanner(rd io.Reader) *bufio.Scanner {
	s := bufio.NewScanner(rd)
	s.Buffer(make([]byte, 64<<10), 16<<20)
	return s
}

// Push implements mapreduce.RecordPusher over the block's line backing.
// The meter call sequence replicates the Next loop exactly: one
// Begin(OpRead) per sampled-record segment, with skipped lines'
// units/bytes accumulating into the segment's End — so virtual timings
// are bit-identical across modes. Record.Value is a view of a reusable
// buffer, valid only inside fn.
//
//approx:compute
//approx:hotpath
func (r *samplingReader) Push(fn func(rec mapreduce.Record)) (bool, error) {
	if !r.block.CanYieldLines() {
		return false, nil
	}
	var carry []byte
	if r.bufs != nil {
		carry = r.bufs.Get(256)
	}
	r.meter.Begin(vtime.OpRead)
	var units, bytes int64
	carry, err := r.block.Lines(carry, func(line []byte) error {
		idx := r.m.Items
		if !r.sampleLine(int64(len(line)), &units, &bytes) {
			return nil
		}
		r.m.ReadSecs += r.meter.End(vtime.OpRead, units, bytes)
		units, bytes = 0, 0
		fn(mapreduce.Record{Block: r.block, Index: idx, Value: zerocopy.String(line)})
		r.meter.Begin(vtime.OpRead)
		return nil
	})
	if r.bufs != nil {
		r.bufs.Put(carry)
	}
	r.m.ReadSecs += r.meter.End(vtime.OpRead, units, bytes)
	if err != nil {
		//lint:ignore hotpath error path, taken at most once per block
		return true, fmt.Errorf("approx: reading %s: %w", r.block.ID(), err)
	}
	return true, nil
}

func (r *samplingReader) Measure() mapreduce.ReaderMeasure { return r.m }

//approx:compute
func (r *samplingReader) Close() error {
	if r.rc != nil {
		return r.rc.Close()
	}
	return nil
}
