package apps

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/vtime"
)

// ---------------------------------------------------------------------------
// K-Means (user-defined approximation, machine learning)
// ---------------------------------------------------------------------------

// KMeansData generates a 2-D point set with `centers` true clusters,
// one line per point: "x<TAB>y".
func KMeansData(name string, blocks, pointsPerBlock, centers int, seed int64) *dfs.File {
	if centers <= 0 {
		centers = 4
	}
	gen := func(idx int, r dfs.RandSource, bw io.Writer) error {
		rr := stats.NewRand(r.Int63())
		for i := 0; i < pointsPerBlock; i++ {
			c := rr.Intn(centers)
			cx := float64(c%2)*10 + 5
			cy := float64(c/2)*10 + 5
			x := cx + rr.NormFloat64()*1.5
			y := cy + rr.NormFloat64()*1.5
			if _, err := fmt.Fprintf(bw, "%.4f\t%.4f\n", x, y); err != nil {
				return err
			}
		}
		return nil
	}
	return dfs.GeneratedFile(name, blocks, seed, int64(pointsPerBlock)*16, int64(pointsPerBlock), gen)
}

// parsePoint parses "x<TAB>y".
func parsePoint(line string) (x, y float64, ok bool) {
	parts := strings.SplitN(line, "\t", 2)
	if len(parts) != 2 {
		return 0, 0, false
	}
	x, err1 := strconv.ParseFloat(parts[0], 64)
	y, err2 := strconv.ParseFloat(parts[1], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return x, y, true
}

// KMeansConfig holds the current centroids and the user-defined
// approximation level for one Lloyd iteration.
type KMeansConfig struct {
	Centroids [][2]float64
	// ApproxRatio is the fraction of map tasks that run the
	// approximate mapper, which subsamples its points 10:1 — the
	// user-defined approximation from the technical report.
	ApproxRatio float64
}

// kmeansStride is the approximate k-means mapper's subsampling: it
// processes every kmeansStride-th point.
const kmeansStride = 10

// kmeansMapper assigns points to the nearest centroid and emits the
// per-centroid partial sums a reduce needs to recompute centroids:
// c<i>/count, c<i>/x, c<i>/y. stride > 1 makes it the approximate
// variant (it processes every stride-th point and scales its sums).
func kmeansMapper(cfg KMeansConfig, stride int) mapreduce.Mapper {
	n := 0
	return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
		n++
		if stride > 1 && n%stride != 0 {
			return
		}
		x, y, ok := parsePoint(rec.Value)
		if !ok {
			return
		}
		bestI, bestD := 0, math.Inf(1)
		for i, c := range cfg.Centroids {
			dx, dy := x-c[0], y-c[1]
			if d := dx*dx + dy*dy; d < bestD {
				bestI, bestD = i, d
			}
		}
		if ch, ok := emit.(vtime.Charger); ok {
			// Parse + one distance evaluation per centroid.
			ch.ChargeCompute(float64(4 * (len(cfg.Centroids) + 1)))
		}
		w := float64(stride) // rescale so approximate sums stay unbiased
		emit.Emit(fmt.Sprintf("c%d/count", bestI), w)
		emit.Emit(fmt.Sprintf("c%d/x", bestI), w*x)
		emit.Emit(fmt.Sprintf("c%d/y", bestI), w*y)
	})
}

// KMeansIteration builds one Lloyd iteration with user-defined
// approximation: cfg.ApproxRatio of the map tasks run a subsampled
// mapper. Error bounds are user-defined territory (the framework
// cannot bound them), so the reduce is a plain sum.
func KMeansIteration(input *dfs.File, cfg KMeansConfig, opts Options) *mapreduce.Job {
	if len(cfg.Centroids) == 0 {
		cfg.Centroids = [][2]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}}
	}
	precise := func() mapreduce.Mapper { return kmeansMapper(cfg, 1) }
	approxV := func() mapreduce.Mapper { return kmeansMapper(cfg, kmeansStride) }
	return userDefinedJob("KMeans", input, approx.PerTaskMappers(cfg.ApproxRatio, opts.Seed, precise, approxV), opts)
}

// CentroidsFromResult recomputes centroids from a KMeansIteration
// result; k is the centroid count.
func CentroidsFromResult(res *mapreduce.Result, k int) [][2]float64 {
	out := make([][2]float64, k)
	for i := 0; i < k; i++ {
		cnt, _ := res.Output(fmt.Sprintf("c%d/count", i))
		sx, _ := res.Output(fmt.Sprintf("c%d/x", i))
		sy, _ := res.Output(fmt.Sprintf("c%d/y", i))
		if cnt.Est.Value > 0 {
			out[i] = [2]float64{sx.Est.Value / cnt.Est.Value, sy.Est.Value / cnt.Est.Value}
		}
	}
	return out
}

// CentroidShift is the user-defined quality metric: the max distance
// between corresponding centroids of two iterations.
func CentroidShift(a, b [][2]float64) float64 {
	worst := 0.0
	for i := range a {
		if i >= len(b) {
			break
		}
		dx, dy := a[i][0]-b[i][0], a[i][1]-b[i][1]
		if d := math.Sqrt(dx*dx + dy*dy); d > worst {
			worst = d
		}
	}
	return worst
}

// ---------------------------------------------------------------------------
// Video encoding (user-defined approximation)
// ---------------------------------------------------------------------------

// VideoData generates a synthetic movie: one line per frame,
// "frame<TAB>complexity" with scene-correlated complexity (consecutive
// frames belong to the same scene).
func VideoData(name string, blocks, framesPerBlock int, seed int64) *dfs.File {
	gen := func(idx int, r dfs.RandSource, bw io.Writer) error {
		rr := stats.NewRand(r.Int63())
		complexity := 50 + rr.Float64()*100
		for i := 0; i < framesPerBlock; i++ {
			if rr.Float64() < 0.02 { // scene cut
				complexity = 50 + rr.Float64()*100
			}
			c := complexity * (0.9 + 0.2*rr.Float64())
			if _, err := fmt.Fprintf(bw, "f%d\t%.2f\n", idx*framesPerBlock+i, c); err != nil {
				return err
			}
		}
		return nil
	}
	return dfs.GeneratedFile(name, blocks, seed, int64(framesPerBlock)*16, int64(framesPerBlock), gen)
}

// encodeFrame is the synthetic encoding kernel: `passes` motion-search
// passes over the frame. More passes cost proportionally more compute
// — reported as work units for the job's meter — and yield a better
// (higher) quality score with diminishing returns.
func encodeFrame(complexity float64, passes int) (quality, bits, work float64) {
	work = complexity * float64(passes) * 40 // motion-search inner loop
	quality = 100 * (1 - math.Exp(-0.8*float64(passes)))
	bits = complexity * 100 / float64(passes)
	return quality, bits, work
}

// videoMapper encodes each frame with the given number of passes and
// emits aggregate quality/bits/frame counters. The kernel declares its
// motion-search work to the meter, so cheaper settings deterministically
// cost less compute.
func videoMapper(passes int) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
		parts := strings.SplitN(rec.Value, "\t", 2)
		if len(parts) != 2 {
			return
		}
		c, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return
		}
		q, b, work := encodeFrame(c, passes)
		if ch, ok := emit.(vtime.Charger); ok {
			ch.ChargeCompute(work)
		}
		emit.Emit("quality", q)
		emit.Emit("bits", b)
		emit.Emit("frames", 1)
	})
}

// VideoEncodingConfig sets the fraction of tasks encoded
// approximately.
type VideoEncodingConfig struct {
	ApproxRatio float64 // fraction of tasks using the approximate encoder
}

// The encoder's motion-search passes per frame: the precise setting
// and the cheap one approximate tasks use.
const (
	precisePasses = 6
	approxPasses  = 2
)

// VideoEncoding builds the encoding job with user-defined
// approximation: a fraction of the map tasks encode with the cheap
// setting. Quality loss is the user's own metric (average quality of
// the output), not a statistical bound.
func VideoEncoding(input *dfs.File, cfg VideoEncodingConfig, opts Options) *mapreduce.Job {
	precise := func() mapreduce.Mapper { return videoMapper(precisePasses) }
	approxV := func() mapreduce.Mapper { return videoMapper(approxPasses) }
	return userDefinedJob("VideoEncoding", input, approx.PerTaskMappers(cfg.ApproxRatio, opts.Seed, precise, approxV), opts)
}

// userDefinedJob assembles a user-defined approximation job: no
// controller, since the per-task mapper choice is the approximation.
func userDefinedJob(name string, input *dfs.File, mappers func(int) mapreduce.Mapper, opts Options) *mapreduce.Job {
	job := opts.job(name, input)
	job.Controller = nil
	job.Format = mapreduce.TextInputFormat{}
	job.NewMapperFor = mappers
	job.NewReduce = func(int) mapreduce.ReduceLogic { return mapreduce.SumReduce() }
	return job
}
