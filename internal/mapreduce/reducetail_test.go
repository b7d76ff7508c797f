package mapreduce_test

import (
	"math/rand"
	"strconv"
	"testing"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/mapreduce"
)

// reduceTailOutputs builds what tasks combined map attempts over a
// Zipf-distributed space of keys deliver to each of reduces partitions:
// outs[task][partition]. Every task reads 2000 records, a page key
// each, as a page-popularity map does.
func reduceTailOutputs(tb testing.TB, tasks, keys, reduces int) [][]*mapreduce.MapOutput {
	names := make([]string, keys)
	for i := range names {
		names[i] = "page" + strconv.Itoa(i)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 2, uint64(keys-1))
	outs := make([][]*mapreduce.MapOutput, tasks)
	for task := range outs {
		const items = 2000
		drawn := make([]string, items)
		for i := range drawn {
			drawn[i] = names[zipf.Uint64()]
		}
		outs[task] = make([]*mapreduce.MapOutput, reduces)
		for p := range outs[task] {
			out, err := mapreduce.NewMapOutput(task, items, items, true, nil, func(e mapreduce.Emitter) {
				for _, k := range drawn {
					if mapreduce.Partition(k, reduces) == p {
						e.Emit(k, 1)
					}
				}
			})
			if err != nil {
				tb.Fatal(err)
			}
			outs[task][p] = out
		}
	}
	return outs
}

// BenchmarkReduceTail is the reduce side of a keys-target job, the
// part the tracker runs after the maps: 81 combined map outputs over
// 20 k page keys folded into 10 MultiStageReducers, each partition
// finalized and its key prefixes taken, and the partitions merged into
// the job's output order. It runs the partitions one after another, as
// a single-worker pool does.
func BenchmarkReduceTail(b *testing.B) {
	const tasks, keys, reduces = 81, 20000, 10
	outs := reduceTailOutputs(b, tasks, keys, reduces)
	view := mapreduce.EstimateView{TotalMaps: 740, Confidence: 0.95}
	runs := make([][]mapreduce.KeyEstimate, reduces)
	prefixes := make([][]uint64, reduces)
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := range runs {
			r := approx.NewMultiStageReducer(approx.OpSum)
			for task := range outs {
				r.Consume(outs[task][p])
			}
			runs[p] = r.Finalize(view)
			prefixes[p] = mapreduce.KeyPrefixes(runs[p])
		}
		n = len(mapreduce.Merge(runs, prefixes))
	}
	b.ReportMetric(float64(n), "keys")
}
