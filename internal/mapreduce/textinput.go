package mapreduce

import (
	"fmt"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/vtime"
	"approxhadoop/internal/zerocopy"
)

// TextInputFormat parses a block into one record per line, like
// Hadoop's TextInputFormat. It is precise: every line is returned and
// the sampleRatio argument is ignored. The approximation-aware
// counterpart lives in the approx package (ApproxTextInput).
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
	return &textReader{block: b}, nil
}

type textReader struct {
	block *dfs.Block
	meter vtime.Meter // SetMeter's, or a deterministic default Push builds
	m     ReaderMeasure
}

// SetMeter implements MeterSetter.
func (t *textReader) SetMeter(m vtime.Meter) { t.meter = m }

// Push implements RecordPusher over the block's line backing: one
// End(OpRead, 1, len+1) per line and a final End(OpRead, 0, 0) at the
// end of the block. Record.Value is a view of the block's bytes, valid
// only inside fn.
//
//approx:compute
//approx:hotpath
func (t *textReader) Push(fn func(rec Record)) (bool, error) {
	if t.meter == nil {
		t.meter = vtime.NewDeterministic()
	}
	_, err := t.block.Lines(nil, func(line []byte) error {
		t.meter.Begin(vtime.OpRead)
		t.m.Items++
		t.m.Sampled++
		t.m.Bytes += int64(len(line)) + 1
		t.m.ReadSecs += t.meter.End(vtime.OpRead, 1, int64(len(line))+1)
		fn(Record{Block: t.block, Index: t.m.Items - 1, Value: zerocopy.String(line)})
		return nil
	})
	if err != nil {
		//lint:ignore hotpath error path, taken at most once per block
		return true, fmt.Errorf("mapreduce: reading %s: %w", t.block.ID(), err)
	}
	t.meter.Begin(vtime.OpRead)
	t.m.ReadSecs += t.meter.End(vtime.OpRead, 0, 0)
	return true, nil
}

func (t *textReader) Measure() ReaderMeasure { return t.m }

//approx:compute
func (t *textReader) Close() error { return nil }
