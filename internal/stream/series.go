// Byte-stable serialization of a window series. The TSV row is the
// determinism contract's unit of account: the frozen-hash test and the
// CI soak job compare these bytes across runs, so every float goes
// through strconv's shortest round-trip formatting and nothing in a row
// depends on maps, pointers, or wall-clock state.
package stream

import (
	"io"
	"strconv"
)

// SeriesHeader names the columns of AppendWindowTSV, ready to print
// above a series.
const SeriesHeader = "window\tstart\tend\trecords\tstrata\tkept\tfolded\tsampled\tcapacity\tkeepfrac\tvalue\teps\tstderr\tdf\tlatency\tflags"

// AppendWindowTSV appends one window's row (no trailing newline).
func AppendWindowTSV(b []byte, r WindowResult) []byte {
	b = strconv.AppendInt(b, r.Index, 10)
	b = append(b, '\t')
	b = strconv.AppendFloat(b, r.Start, 'g', -1, 64)
	b = append(b, '\t')
	b = strconv.AppendFloat(b, r.End, 'g', -1, 64)
	b = append(b, '\t')
	b = strconv.AppendInt(b, r.Records, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Strata), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Processed), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, r.Folded, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, r.Sampled, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Plan.Capacity), 10)
	b = append(b, '\t')
	b = strconv.AppendFloat(b, r.Plan.KeepFrac, 'g', -1, 64)
	b = append(b, '\t')
	b = strconv.AppendFloat(b, r.Est.Value, 'g', -1, 64)
	b = append(b, '\t')
	b = strconv.AppendFloat(b, r.Est.Err, 'g', -1, 64)
	b = append(b, '\t')
	b = strconv.AppendFloat(b, r.Est.StdErr, 'g', -1, 64)
	b = append(b, '\t')
	b = strconv.AppendFloat(b, r.Est.DF, 'g', -1, 64)
	b = append(b, '\t')
	b = strconv.AppendFloat(b, r.Latency, 'g', -1, 64)
	b = append(b, '\t')
	b = appendFlags(b, r)
	return b
}

// appendFlags writes a compact flag column: "exact", "degraded",
// "partial", combinations joined with "+", or "-" for none.
func appendFlags(b []byte, r WindowResult) []byte {
	n := len(b)
	if r.Exact {
		b = append(b, "exact"...)
	}
	if r.Degraded {
		if len(b) > n {
			b = append(b, '+')
		}
		b = append(b, "degraded"...)
	}
	if r.Partial {
		if len(b) > n {
			b = append(b, '+')
		}
		b = append(b, "partial"...)
	}
	if len(b) == n {
		b = append(b, '-')
	}
	return b
}

// SeriesBytes renders the whole series, one row per line with a
// trailing newline each — the canonical byte form two runs of the
// same (query, seed, trace) must reproduce exactly.
func SeriesBytes(series []WindowResult) []byte {
	var b []byte
	for _, r := range series {
		b = AppendWindowTSV(b, r)
		b = append(b, '\n')
	}
	return b
}

// WriteSeries writes SeriesHeader plus the series rows to w.
func WriteSeries(w io.Writer, series []WindowResult) error {
	if _, err := io.WriteString(w, SeriesHeader+"\n"); err != nil {
		return err
	}
	_, err := w.Write(SeriesBytes(series))
	return err
}
