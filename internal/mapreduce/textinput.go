package mapreduce

import (
	"fmt"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/vtime"
	"approxhadoop/internal/zerocopy"
)

// TextInputFormat parses a block into one record per line, like
// Hadoop's TextInputFormat. It is precise: every line is returned and
// the sampleRatio argument is ignored. The approximation-aware
// counterpart lives in the approx package (ApproxTextInput); both open
// the one line reader, this one with no source.
type TextInputFormat struct{}

// Open implements InputFormat. The reader pushes zero-copy records
// over the block's line backing: no pipe goroutine, no scanner copy, no
// per-record string allocation.
//
//approx:compute
func (TextInputFormat) Open(b *dfs.Block, _ float64, _ int64) (RecordReader, error) {
	if b == nil {
		return nil, fmt.Errorf("mapreduce: nil block")
	}
	return NewLineReader(b, nil, 0), nil
}

// NewLineReader returns the reader of both text formats: it pushes a
// record for every line of b that b.Sample keeps — every line when src
// is nil, and otherwise line i when the i-th draw of src is below the
// threshold keep (stats.DrawThreshold). Skipped lines still count
// toward Items and Bytes, and toward the metered read cost, because the
// block is read in full either way.
func NewLineReader(b *dfs.Block, src *stats.Source, keep int64) RecordReader {
	return &lineReader{block: b, src: src, keep: keep}
}

type lineReader struct {
	block *dfs.Block
	src   *stats.Source // nil when every line is kept
	keep  int64
	meter vtime.Meter      // SetMeter's, or a deterministic default Push builds
	push  func(rec Record) // Push's fn, while Push runs
	m     ReaderMeasure
}

// SetMeter implements MeterSetter.
func (r *lineReader) SetMeter(m vtime.Meter) { r.meter = m }

// Push implements RecordPusher over the block's line backing: one
// OpRead bracket per kept line, with skipped lines' units and bytes
// riding in the bracket of the next line kept, and a last bracket for
// whatever follows the last kept line. Unsampled, that is End(OpRead,
// 1, len+1) per line and a final End(OpRead, 0, 0). Record.Value is a
// view of the block's bytes, valid only inside fn.
//
//approx:compute
//approx:hotpath
func (r *lineReader) Push(fn func(rec Record)) (bool, error) {
	if r.meter == nil {
		r.meter = vtime.NewDeterministic()
	}
	r.push = fn
	r.meter.Begin(vtime.OpRead)
	units, bytes, err := r.block.Sample(r.src, r.keep, r)
	r.push = nil
	r.m.Items += units
	r.m.Bytes += bytes
	r.m.ReadSecs += r.meter.End(vtime.OpRead, units, bytes)
	if err != nil {
		//lint:ignore hotpath error path, taken at most once per block
		return true, fmt.Errorf("mapreduce: reading %s: %w", r.block.ID(), err)
	}
	return true, nil
}

// Line implements dfs.LineSink: it closes the read bracket of a kept
// line, hands the line over and opens the next bracket.
//
//approx:hotpath
func (r *lineReader) Line(index, units, bytes int64, line []byte) {
	r.m.Items += units
	r.m.Sampled++
	r.m.Bytes += bytes
	r.m.ReadSecs += r.meter.End(vtime.OpRead, units, bytes)
	r.push(Record{Block: r.block, Index: index, Value: zerocopy.String(line)})
	r.meter.Begin(vtime.OpRead)
}

func (r *lineReader) Measure() ReaderMeasure { return r.m }

//approx:compute
func (r *lineReader) Close() error { return nil }
