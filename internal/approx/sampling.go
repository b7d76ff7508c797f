package approx

import (
	"fmt"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// ApproxTextInput is the sampling analog of TextInputFormat (the
// paper's ApproxTextInputFormat): it reads every line of the block —
// input data sampling cannot avoid the read I/O, which is why task
// dropping saves more time (Section 5.2) — but returns each record
// with probability sampleRatio. The record reader tracks both the
// block's total unit count M and the sampled count m, which the
// framework forwards to reducers for the multi-stage estimators.
type ApproxTextInput struct{}

// Open implements mapreduce.InputFormat. It opens TextInputFormat's
// reader with a source: line i is in the sample iff the i-th Float64 of
// the source seeded with seed is below sampleRatio, which the reader
// tests as the i-th draw below stats.DrawThreshold(sampleRatio). A
// ratio outside (0, 1) reads as 1: the reader has no source, draws
// nothing and keeps every line.
//
//approx:compute
func (ApproxTextInput) Open(b *dfs.Block, sampleRatio float64, seed int64) (mapreduce.RecordReader, error) {
	if b == nil {
		return nil, fmt.Errorf("approx: nil block")
	}
	if !(sampleRatio > 0 && sampleRatio < 1) {
		return mapreduce.NewLineReader(b, nil, 0), nil
	}
	return mapreduce.NewLineReader(b, stats.NewSource(seed), stats.DrawThreshold(sampleRatio)), nil
}
