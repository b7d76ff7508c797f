// Streaming scenarios: continuous queries over the live wiki edit and
// web access streams. Each builder pairs a workload generator's stream
// with a stream.Query the way the batch builders pair files with Jobs;
// Catalog names them, so cmd/approxrun and the jobserver submit the
// same scenarios by name.
package apps

import (
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

// StreamOptions configure a streaming scenario.
type StreamOptions struct {
	// Seed drives the source jitter and every reservoir (default 1).
	Seed int64
	// Rate is the arrival intensity curve (default: diurnal around
	// 400 rec/s swinging 0.5, i.e. a 3x trough-to-peak excursion).
	Rate workload.RateFunc
	// Window spec (default: 10s tumbling).
	Window stream.Window
	// SLO is the query's: a target or a latency budget runs it under
	// the adaptive controller, the zero value with a fixed plan.
	SLO stream.SLO
	// Capacity is the starting per-stratum reservoir size (default
	// stream.Query default, 64).
	Capacity int
	// Workers is ignored: a stream runs on two goroutines whatever it
	// is set to (stream.Pipeline). The field stays only because
	// bench/stream.go, frozen while PRs are measured against it, still
	// sets it; it goes with ROADMAP item 7(e)'s ledger PR.
	Workers int
	// MaxWindows stops the stream after N windows (0 = drain source).
	MaxWindows int
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Rate == nil {
		o.Rate = workload.DiurnalRate(400, 0.5, 120)
	}
	if o.Window.Size <= 0 {
		o.Window = stream.Window{Size: 10}
	}
	return o
}

// pipeline assembles the common Pipeline scaffolding around a query
// over input.
func (o StreamOptions) pipeline(q stream.Query, input *dfs.File) *stream.Pipeline {
	q.Window = o.Window
	q.SLO = o.SLO
	q.Seed = o.Seed
	q.Capacity = o.Capacity
	return &stream.Pipeline{
		Query:      q,
		Source:     workload.StreamFrom(input, workload.StreamOptions{Rate: o.Rate, Seed: o.Seed}),
		MaxWindows: o.MaxWindows,
	}
}

// EditRateStream counts wiki edits per window, stratified by project
// (the EditLog's ~40 natural substreams): a live edits-per-interval
// dashboard. Count queries sample nothing per-unit; their only
// degradation lever is stratum shedding under latency pressure.
func EditRateStream(gen workload.EditLog, opts StreamOptions) *stream.Pipeline {
	return editRate(gen.File("stream-input"), opts)
}

func editRate(input *dfs.File, opts StreamOptions) *stream.Pipeline {
	opts = opts.withDefaults()
	q := stream.Query{
		Name: "edit-rate",
		Op:   stream.OpCount,
		Stratify: func(line []byte) []byte {
			return workload.Field(line, 1) // project
		},
	}
	return opts.pipeline(q, input)
}

// WebBytesStream estimates bytes served per window from the web
// access stream. Clients are hashed into 32 fixed substreams
// (StreamApprox's bounded stratification for high-cardinality keys),
// and the heavy-tailed per-request byte sizes are what the per-stratum
// reservoirs sample.
func WebBytesStream(gen workload.WebLog, opts StreamOptions) *stream.Pipeline {
	return webBytes(gen.File("stream-input"), opts)
}

func webBytes(input *dfs.File, opts StreamOptions) *stream.Pipeline {
	opts = opts.withDefaults()
	q := stream.Query{
		Name: "web-bytes",
		Op:   stream.OpSum,
		Stratify: func(line []byte) []byte {
			return workload.Field(line, 0) // client id
		},
		Value: func(line []byte) (float64, bool) {
			n, ok := workload.IntField(line, 3) // bytes served
			return float64(n), ok
		},
		Buckets: 32,
	}
	return opts.pipeline(q, input)
}
