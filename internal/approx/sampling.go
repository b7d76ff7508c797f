package approx

import (
	"fmt"

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

// Open implements mapreduce.InputFormat. Like TextInputFormat's, the
// reader pushes zero-copy records over the block's line backing; line i
// is in the sample iff the i-th Float64 of the source seeded with seed
// is below sampleRatio.
//
//approx:compute
func (ApproxTextInput) Open(b *dfs.Block, sampleRatio float64, seed int64) (mapreduce.RecordReader, error) {
	if b == nil {
		return nil, fmt.Errorf("approx: nil block")
	}
	if sampleRatio <= 0 || sampleRatio > 1 {
		sampleRatio = 1
	}
	r := &samplingReader{block: b, ratio: sampleRatio}
	if sampleRatio < 1 {
		// sampleLine draws only below ratio 1; a reader that never
		// draws skips even the source.
		r.rng = stats.NewSource(seed)
	}
	return r, nil
}

type samplingReader struct {
	block *dfs.Block
	ratio float64
	rng   *stats.Source // nil at ratio 1, where no line is ever drawn
	meter vtime.Meter   // SetMeter's, or a deterministic default Push builds
	m     mapreduce.ReaderMeasure
}

// SetMeter implements mapreduce.MeterSetter.
func (r *samplingReader) SetMeter(m vtime.Meter) { r.meter = m }

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

// Push implements mapreduce.RecordPusher over the block's line backing:
// one OpRead bracket per sampled record, with skipped lines' units and
// bytes accumulating into the bracket of the next record returned, and
// a last bracket for whatever follows the last sampled line.
// Record.Value is a view of the block's bytes, valid only inside fn.
//
//approx:compute
//approx:hotpath
func (r *samplingReader) Push(fn func(rec mapreduce.Record)) (bool, error) {
	if r.meter == nil {
		r.meter = vtime.NewDeterministic()
	}
	r.meter.Begin(vtime.OpRead)
	var units, bytes int64
	_, err := r.block.Lines(nil, func(line []byte) error {
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
	r.m.ReadSecs += r.meter.End(vtime.OpRead, units, bytes)
	if err != nil {
		//lint:ignore hotpath error path, taken at most once per block
		return true, fmt.Errorf("approx: reading %s: %w", r.block.ID(), err)
	}
	return true, nil
}

func (r *samplingReader) Measure() mapreduce.ReaderMeasure { return r.m }

//approx:compute
func (r *samplingReader) Close() error { return nil }
