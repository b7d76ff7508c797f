package approxhadoop_test

import (
	"bytes"
	"testing"

	approxhadoop "approxhadoop"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

// streamSeries runs the canonical streaming determinism query — an
// adaptive windowed sum over a diurnally paced replay of the text
// corpus — and renders the window series in its canonical byte form.
func streamSeries(t *testing.T) []byte {
	t.Helper()
	file := approxhadoop.SplitText("stream.txt", corpus(), 1024)
	q := approxhadoop.StreamQuery{
		Name: "line-bytes",
		Op:   approxhadoop.StreamSum,
		Stratify: func(line []byte) []byte {
			if i := bytes.IndexByte(line, ' '); i > 0 {
				return line[:i]
			}
			return line
		},
		Value: func(line []byte) (float64, bool) {
			return float64(len(line)), true
		},
		Window:   approxhadoop.StreamWindow{Size: 2},
		SLO:      approxhadoop.StreamSLO{TargetRelErr: 0.1, MaxLatency: 0.05},
		Capacity: 16,
		Seed:     21,
	}
	p := &approxhadoop.StreamPipeline{
		Query:      q,
		Source:     approxhadoop.StreamFromFile(file, approxhadoop.StreamOptions{Rate: approxhadoop.DiurnalRate(300, 0.5, 6), Seed: 21}),
		MaxWindows: 8,
	}
	return runSeries(t, p)
}

// runSeries runs a pipeline and renders its window series.
func runSeries(t *testing.T, p *approxhadoop.StreamPipeline) []byte {
	t.Helper()
	series, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("stream emitted no windows")
	}
	return approxhadoop.StreamSeriesBytes(series)
}

// TestStreamSeriesDeterministic is the streaming plane's acceptance
// check, the sibling of TestSameSeedRunsIdentical: the same (query,
// seed, rate trace) must emit a byte-identical window series on every
// run — every reservoir draw, shedding coin and modeled latency in it.
// (frozen_stream_test.go pins what those bytes are.)
func TestStreamSeriesDeterministic(t *testing.T) {
	base := streamSeries(t)
	if again := streamSeries(t); !bytes.Equal(base, again) {
		t.Errorf("series differs between two identical runs:\n%s\nvs\n%s", base, again)
	}
	// One pipeline run twice: each run starts its controller from the
	// query, not from the rate forecasts the run before left behind.
	p := apps.WebBytesStream(workload.DefaultWebLog(), apps.StreamOptions{SLO: stream.SLO{MaxLatency: 0.02}, MaxWindows: 12})
	if first, second := runSeries(t, p), runSeries(t, p); !bytes.Equal(first, second) {
		t.Errorf("series differs between two runs of one pipeline:\n%s\nvs\n%s", first, second)
	}
}
