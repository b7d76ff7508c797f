package mapreduce

import (
	"bufio"
	"fmt"
	"io"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/vtime"
	"approxhadoop/internal/zerocopy"
)

// TextInputFormat parses a block into one record per line, like
// Hadoop's TextInputFormat. It is precise: every line is returned and
// the sampleRatio argument is ignored. The approximation-aware
// counterpart lives in the approx package (ApproxTextInput).
type TextInputFormat struct{}

// Open implements InputFormat. The reader supports both modes: pull
// (Next, durable records, used by Job.LegacyDataPlane and external
// callers) and push (Push, zero-copy records over the block's line
// backing — no pipe goroutine, no scanner copy, no per-record string
// allocations).
//
//approx:compute
func (TextInputFormat) Open(b *dfs.Block, _ float64, _ int64) (RecordReader, error) {
	if b == nil {
		return nil, fmt.Errorf("mapreduce: nil block")
	}
	return &textReader{block: b, meter: vtime.NewDeterministic()}, nil
}

// newLineScanner builds a scanner with a generous line-length cap.
func newLineScanner(r io.Reader) *bufio.Scanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64<<10), 16<<20)
	return s
}

type textReader struct {
	block *dfs.Block
	rc    io.ReadCloser // pull mode only, opened lazily
	scan  *bufio.Scanner
	meter vtime.Meter
	m     ReaderMeasure
	bufs  *BufList
}

// SetMeter implements MeterSetter.
func (t *textReader) SetMeter(m vtime.Meter) { t.meter = m }

// SetBuffers implements BufferLender: the line carry is borrowed from
// the attempt's free list.
func (t *textReader) SetBuffers(l *BufList) { t.bufs = l }

//approx:compute
func (t *textReader) Next() (Record, bool, error) {
	if t.scan == nil {
		t.rc = t.block.Open()
		t.scan = newLineScanner(t.rc)
	}
	t.meter.Begin(vtime.OpRead)
	if !t.scan.Scan() {
		t.m.ReadSecs += t.meter.End(vtime.OpRead, 0, 0)
		if err := t.scan.Err(); err != nil {
			return Record{}, false, fmt.Errorf("mapreduce: reading %s: %w", t.block.ID(), err)
		}
		return Record{}, false, nil
	}
	line := t.scan.Text()
	t.m.Items++
	t.m.Sampled++
	t.m.Bytes += int64(len(line)) + 1
	t.m.ReadSecs += t.meter.End(vtime.OpRead, 1, int64(len(line))+1)
	return Record{Block: t.block, Index: t.m.Items - 1, Value: line}, true, nil
}

// Push implements RecordPusher over the block's line backing. The meter
// Begin/End sequence per record — End(OpRead, 1, len+1) per line, a
// final End(OpRead, 0, 0) at EOF — replicates the Next loop exactly, so
// virtual timings are bit-identical across modes. Record.Value is a
// view of a reusable buffer, valid only inside fn.
//
//approx:compute
//approx:hotpath
func (t *textReader) Push(fn func(rec Record)) (bool, error) {
	if !t.block.CanYieldLines() {
		return false, nil
	}
	var carry []byte
	if t.bufs != nil {
		carry = t.bufs.Get(256)
	}
	carry, err := t.block.Lines(carry, func(line []byte) error {
		t.meter.Begin(vtime.OpRead)
		t.m.Items++
		t.m.Sampled++
		t.m.Bytes += int64(len(line)) + 1
		t.m.ReadSecs += t.meter.End(vtime.OpRead, 1, int64(len(line))+1)
		fn(Record{Block: t.block, Index: t.m.Items - 1, Value: zerocopy.String(line)})
		return nil
	})
	if t.bufs != nil {
		t.bufs.Put(carry)
	}
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
func (t *textReader) Close() error {
	if t.rc != nil {
		return t.rc.Close()
	}
	return nil
}
