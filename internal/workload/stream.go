// Live stream emission for the workload generators.
//
// A LogStream replays a dfs.File as an unbounded-looking, event-time
// paced stream: records come out in exactly the batch file's byte
// order and content, but each carries a virtual arrival timestamp
// drawn from a seeded Poisson process whose intensity follows a caller
// supplied rate curve (constant, diurnal, ...). The pacing is entirely
// virtual — no sleeping, no wall clock — so a fixed (file, rate curve,
// seed) triple always produces the identical (timestamp, record)
// sequence, which is what lets the streaming plane promise
// byte-identical window series across runs.
package workload

import (
	"errors"
	"math"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/stats"
)

// ErrStop is returned by a LogStream.Run callback to end the stream
// early without error (for example once enough windows have closed).
var ErrStop = errors.New("workload: stop stream")

// RateFunc is a stream intensity curve: expected records per virtual
// second at virtual time t (seconds since stream start). Values are
// clamped to a small positive floor so a zero-rate trough advances
// time instead of dividing by zero.
//
//approx:pure
type RateFunc func(t float64) float64

// minRate floors RateFunc values; a curve that dips to zero would
// otherwise stall virtual time forever.
const minRate = 1e-9

// ConstantRate emits perSec records per virtual second, forever.
func ConstantRate(perSec float64) RateFunc {
	return func(float64) float64 { return perSec }
}

// DiurnalRate is a day-shaped sinusoid: base*(1 + swing*sin(2πt/period)).
// swing in [0,1) keeps the curve positive; swing 0.5 sweeps a 3x range
// (0.5x..1.5x base), the kind of input-rate excursion the adaptive
// controller must ride out.
func DiurnalRate(base, swing, period float64) RateFunc {
	return func(t float64) float64 {
		return base * (1 + swing*math.Sin(2*math.Pi*t/period))
	}
}

// StreamOptions configure how a file is replayed as a stream.
type StreamOptions struct {
	// Rate is the arrival intensity curve. Required.
	Rate RateFunc
	// Seed drives the Poisson jitter between arrivals. The same seed
	// reproduces the same timestamp sequence; 0 defaults to 1.
	Seed int64
	// Start offsets the first arrival's virtual time (default 0).
	Start float64
}

// LogStream replays a generated (or byte-backed) dfs file as a
// virtual-clock paced record stream.
type LogStream struct {
	file *dfs.File
	opt  StreamOptions
}

// StreamFrom wraps a dfs file — typically a workload generator's
// File() — as a live stream. The file's blocks must have a line backing
// (all generated and SplitText files do); Run reports
// dfs.ErrNoLineBacking otherwise.
func StreamFrom(f *dfs.File, opt StreamOptions) *LogStream {
	if opt.Rate == nil {
		opt.Rate = ConstantRate(1)
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	return &LogStream{file: f, opt: opt}
}

// Run drives fn once per record, in file order, with strictly
// increasing virtual arrival times. Arrivals are a non-homogeneous
// Poisson process: each inter-arrival gap is -ln(u)/rate(t) with u
// drawn from the stream's seeded RNG, so the expected instantaneous
// rate tracks the curve while individual gaps jitter realistically.
// The yielded line slice is only valid during the call (it aliases
// the block generator's buffer); fn must copy what it keeps. fn may
// return ErrStop to end the stream cleanly; any other error aborts
// Run and is returned as-is.
func (s *LogStream) Run(fn func(t float64, line []byte) error) error {
	rng := stats.NewSource(s.opt.Seed)
	t := s.opt.Start
	var carry []byte
	for _, b := range s.file.Blocks {
		var err error
		carry, err = b.Lines(carry, func(line []byte) error {
			// 1-Float64() is in (0,1]: -ln never overflows to +Inf.
			u := 1 - rng.Float64()
			r := s.opt.Rate(t)
			if r < minRate {
				r = minRate
			}
			t += -math.Log(u) / r
			return fn(t, line)
		})
		if err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
	return nil
}
