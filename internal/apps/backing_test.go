package apps

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/workload"
)

// measuring wraps a controller and keeps the TaskMeasures of the
// completed maps as the last Completed call saw them.
type measuring struct {
	mapreduce.Controller
	measures []cluster.TaskMeasure
}

func (m *measuring) Completed(v *mapreduce.JobView) mapreduce.Directive {
	m.measures = append(m.measures[:0], v.Measures...)
	return m.Controller.Completed(v)
}

// TestBackingsReadAlike runs ProjectPopularity over a generated access
// log and over its copy in byte blocks (NewByteBlock over each block's
// Open bytes): a byte block is read through its line index and keep-
// mask, a generated one through the line splitter with a draw per
// line, and the two must be one reader. The rendered result, RealSecs
// and every map's TaskMeasure must be identical, sampled or not,
// dropping or not, inline or on a pool.
func TestBackingsReadAlike(t *testing.T) {
	gen := workload.AccessLog{Blocks: 24, LinesPerBlock: 300, Projects: 60, Pages: 2000, Seed: 5}.File("access")
	copied := &dfs.File{Name: gen.Name}
	for i, b := range gen.Blocks {
		rc := b.Open()
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		copied.Blocks = append(copied.Blocks, dfs.NewByteBlock(gen.Name, i, data, b.Items))
	}
	read := func(input *dfs.File, sample, drop float64, workers int) (string, float64, []cluster.TaskMeasure) {
		ctl := &measuring{Controller: approx.NewStatic(sample, drop)}
		job := ProjectPopularity(input, Options{Seed: 3, Controller: ctl})
		job.Workers = workers
		res := run(t, job)
		var out bytes.Buffer
		if err := mapreduce.WriteJSON(&out, res); err != nil {
			t.Fatal(err)
		}
		return out.String(), res.RealSecs, ctl.measures
	}
	for _, sample := range []float64{1, 0.1} {
		for _, drop := range []float64{0, 0.25} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("sample=%v/drop=%v/workers=%d", sample, drop, workers)
				genOut, genSecs, genM := read(gen, sample, drop, workers)
				byteOut, byteSecs, byteM := read(copied, sample, drop, workers)
				if genOut != byteOut {
					t.Errorf("%s: results differ:\ngenerated %s\nbytes     %s", name, genOut, byteOut)
				}
				if math.Float64bits(genSecs) != math.Float64bits(byteSecs) {
					t.Errorf("%s: RealSecs %v generated, %v from bytes", name, genSecs, byteSecs)
				}
				if len(genM) == 0 || len(genM) != len(byteM) {
					t.Fatalf("%s: %d task measures generated, %d from bytes", name, len(genM), len(byteM))
				}
				for i := range genM {
					if genM[i] != byteM[i] {
						t.Errorf("%s: map %d measured %+v generated, %+v from bytes", name, i, genM[i], byteM[i])
					}
				}
			}
		}
	}
}
