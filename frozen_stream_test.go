package approxhadoop_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"approxhadoop/internal/apps"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

// frozenStreamSeries pins the SHA-256 of stream.SeriesBytes for the
// stream plane's window-lifecycle paths. The hashes were recorded at
// commit ed2228d — the last with the sharded fold pool, at Workers 1
// and 4, which agreed on every row — before the rewrite that folds each
// record where it is routed. Four were re-recorded once since, when the
// window estimator moved from the two-pass s_u^2 of a cluster list to
// the one-pass sums the batch reducer reads: web-bytes/sliding/shed/1
// and /7 and edit-rate/maxwindows/1 and /7 moved by at most 3 ulps in
// Err and StdErr, with every window, plan, flag and Value unchanged. A
// mismatch is a moved byte (another reservoir draw, another shedding
// coin, a window opened under another plan), never a hash to re-record.
// Key: row/seed.
var frozenStreamSeries = map[string]string{
	"web-bytes/tumbling/slo/1":    "4a383fc4ad7d373f72a95fe23a8873f5a4074bf39d67156064278f0c87d68e68",
	"web-bytes/tumbling/slo/7":    "b21f13e97f47e9b637160594ab51d5902d4129315e9df0354a4e171d75aa9bf0",
	"web-bytes/sliding/shed/1":    "6d2b696037fdec6e3e26b609a820ddb3217eb980d3f542b2f0a41e7edec988aa",
	"web-bytes/sliding/shed/7":    "5bf8b1ec80bd29dbf3bb2c667c4a91e74c4c0e9f8ba29a88d72b42b5c1396b5e",
	"edit-rate/maxwindows/1":      "798951815173dc9d17303af780641c6aa9ddb8d89fbfd9b0ac16728d028c5677",
	"edit-rate/maxwindows/7":      "d2fbe956de79108899ae772d5d1c834b084849f79db6f12e92e6dc4f57ccfd7b",
	"edit-page/mean/1":            "49bc189b8c3f7522d6879ec5ce719c435072cefefe206c6f6264ad5e40c521c9",
	"edit-page/mean/7":            "4d7f0480597a9cf40f4cc6d6ec8981682ca58797f4d18705a23c41a80754074d",
	"web-bytes/fixed-plan/1":      "9c7c2669d679fd9ad884cc4879b09c4b4bbe8e7820d53ec3571f124ffa8bddfd",
	"web-bytes/fixed-plan/7":      "bf18c1edcc3f6d0adb9948ee46117aa52dd8aa526412db125d36ca35f49cac83",
	"web-bytes/trough/1":          "b25a4a97c2e6b16533a4956ffb36ceed8d4dd10950ed8b9aa2e5f3a9a84d5765",
	"web-bytes/trough/7":          "6f8234f6ef1032b9d36a1a828bb49b4fb709aa7039265541ececc094e9aba4b9",
	"edit-rate/sliding/drained/1": "b2150407f752768daa9af17fc0f5b091f6343f04784719a1868f287bc8c81a54",
	"edit-rate/sliding/drained/7": "ad543c77609eaa69788d8761815813804b2e4e2b426100fe2c1ce722756f594b",
}

// frozenStreamRows are the frozen configurations. shows names what a
// row's series must contain for the row to pin what it claims to: a
// flag of the TSV flags column, or "empty" for a window no record fell
// into.
var frozenStreamRows = []struct {
	name  string
	shows []string
	build func(seed int64) *stream.Pipeline
}{
	{"web-bytes/tumbling/slo", nil, func(seed int64) *stream.Pipeline {
		return apps.WebBytesStream(frozenWeb(), apps.StreamOptions{
			Seed:   seed,
			Rate:   workload.DiurnalRate(2500, 0.5, 12),
			Window: stream.Window{Size: 2},
			SLO:    stream.SLO{TargetRelErr: 0.10, MaxLatency: 0.8},
		})
	}},
	{"web-bytes/sliding/shed", []string{"degraded", "partial"}, func(seed int64) *stream.Pipeline {
		return apps.WebBytesStream(frozenWeb(), apps.StreamOptions{
			Seed:   seed,
			Rate:   workload.DiurnalRate(2500, 0.5, 12),
			Window: stream.Window{Size: 2, Slide: 0.5},
			SLO:    stream.SLO{TargetRelErr: 0.25, MaxLatency: 0.04},
		})
	}},
	{"edit-rate/maxwindows", []string{"degraded"}, func(seed int64) *stream.Pipeline {
		return apps.EditRateStream(frozenEdits(), apps.StreamOptions{
			Seed:       seed,
			Rate:       workload.DiurnalRate(300, 0.5, 60),
			Window:     stream.Window{Size: 5},
			SLO:        stream.SLO{MaxLatency: 0.05},
			MaxWindows: 9,
		})
	}},
	{"edit-page/mean", nil, func(seed int64) *stream.Pipeline {
		return &stream.Pipeline{
			Query: stream.Query{
				Name:     "edit-page-mean",
				Op:       stream.OpMean,
				Stratify: func(line []byte) []byte { return frozenField(line, 1) },
				Value: func(line []byte) (float64, bool) {
					f := frozenField(line, 3) // "page<N>"
					if len(f) <= 4 {
						return 0, false
					}
					var n float64
					for _, c := range f[4:] {
						if c < '0' || c > '9' {
							return 0, false
						}
						n = n*10 + float64(c-'0')
					}
					return n, true
				},
				Window:   stream.Window{Size: 2},
				SLO:      stream.SLO{TargetRelErr: 0.25},
				Capacity: 24,
				Seed:     seed,
			},
			Source: workload.StreamFrom(frozenEdits().File("frozen-edits"), workload.StreamOptions{Rate: workload.DiurnalRate(1500, 0.4, 10), Seed: seed}),
		}
	}},
	{"web-bytes/fixed-plan", []string{"partial"}, func(seed int64) *stream.Pipeline {
		return apps.WebBytesStream(frozenWeb(), apps.StreamOptions{
			Seed:     seed,
			Rate:     workload.ConstantRate(3000),
			Window:   stream.Window{Size: 3},
			Capacity: 32,
		})
	}},
	{"web-bytes/trough", []string{"empty"}, func(seed int64) *stream.Pipeline {
		// Between t = 3 and t = 11 arrivals are seven seconds apart on
		// average, so the watermark jumps whole 2 s windows at a time.
		return apps.WebBytesStream(frozenWeb(), apps.StreamOptions{
			Seed: seed,
			Rate: func(t float64) float64 {
				if t >= 3 && t < 11 {
					return 0.15
				}
				return 4000
			},
			Window:     stream.Window{Size: 2},
			SLO:        stream.SLO{TargetRelErr: 0.10, MaxLatency: 0.8},
			MaxWindows: 10,
		})
	}},
	{"edit-rate/sliding/drained", []string{"partial"}, func(seed int64) *stream.Pipeline {
		return apps.EditRateStream(frozenEdits(), apps.StreamOptions{
			Seed:   seed,
			Rate:   workload.ConstantRate(400),
			Window: stream.Window{Size: 10, Slide: 2.5},
		})
	}},
}

func frozenWeb() workload.WebLog {
	w := workload.DefaultWebLog()
	w.Blocks, w.LinesPerBlock = 8, 5000
	return w
}

func frozenEdits() workload.EditLog {
	e := workload.DefaultEditLog()
	e.Blocks, e.LinesPerBlock = 10, 2000
	return e
}

// frozenField is the idx-th tab-separated field of line, nil when there
// is none: the test's own cutter, so the rows built on it do not move
// with the one the apps use.
func frozenField(line []byte, idx int) []byte {
	for ; idx > 0; idx-- {
		i := bytes.IndexByte(line, '\t')
		if i < 0 {
			return nil
		}
		line = line[i+1:]
	}
	if i := bytes.IndexByte(line, '\t'); i >= 0 {
		return line[:i]
	}
	return line
}

// TestFrozenStreamSeries runs every frozen row at seeds 1 and 7 and
// compares the series hash with the recorded one.
func TestFrozenStreamSeries(t *testing.T) {
	for _, row := range frozenStreamRows {
		for _, seed := range []int64{1, 7} {
			name := fmt.Sprintf("%s/%d", row.name, seed)
			series, err := row.build(seed).Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, want := range row.shows {
				if !frozenSeriesShows(series, want) {
					t.Errorf("%s: no %s window in %d; the row no longer pins that path", name, want, len(series))
				}
			}
			sum := sha256.Sum256(stream.SeriesBytes(series))
			if got, want := hex.EncodeToString(sum[:]), frozenStreamSeries[name]; got != want {
				t.Errorf("%s: series sha256 %s, frozen %s", name, got, want)
			}
		}
	}
}

// frozenSeriesShows reports whether some window of the series carries
// the flag, or holds no record for "empty".
func frozenSeriesShows(series []stream.WindowResult, what string) bool {
	for _, r := range series {
		switch what {
		case "empty":
			if r.Records == 0 {
				return true
			}
		case "degraded":
			if r.Degraded {
				return true
			}
		case "partial":
			if r.Partial {
				return true
			}
		}
	}
	return false
}
