package jobserver

import (
	"encoding/json"
	"testing"
)

// TestSpecWorkersKeyIgnored: a client cannot size a job's compute
// pool. A "workers" key, which earlier specs and journals may carry,
// decodes without error and the job runs on the pool Build is given.
func TestSpecWorkersKeyIgnored(t *testing.T) {
	var spec JobSpec
	if err := json.Unmarshal([]byte(`{"app":"total-size","blocks":4,"workers":1073741824}`), &spec); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3} {
		job, err := spec.Build(workers)
		if err != nil {
			t.Fatal(err)
		}
		if job.Workers != workers {
			t.Errorf("Build(%d) gave a job with Workers %d", workers, job.Workers)
		}
	}
}

// specSeeds are fuzz seeds both spec decoders see: the legacy
// "controller" key in each of its forms, the ignored "workers" key,
// sizes at and past the bounds, and values of the wrong type.
var specSeeds = []string{
	`{"app":"total-size"}`,
	`{"app":"clients","blocks":12,"linesPerBlock":80,"seed":3,"sampleRatio":0.25}`,
	`{"app":"clients","controller":"static","sampleRatio":0.5,"dropRatio":0.25}`,
	`{"app":"page-popularity","controller":"target","target":0.05}`,
	`{"app":"total-size","controller":"deadline","deadline":6,"bestEffort":true}`,
	`{"app":"total-size","controller":"precise","sampleRatio":0.5}`,
	`{"app":"total-size","controller":"sampled"}`,
	`{"app":"total-size","workers":1073741824}`,
	`{"app":"total-size","blocks":50000,"linesPerBlock":10000}`,
	`{"app":"total-size","blocks":50001}`,
	`{"app":"wiki-length","linesPerBlock":1000000000}`,
	`{"app":"total-size","blocks":-5,"linesPerBlock":-1,"reduces":-2}`,
	`{"app":"edit-rate","window":6,"slide":2,"targetRelErr":0.1,"maxLatency":0.05}`,
	`{"app":"web-bytes","blocks":3,"linesPerBlock":50,"swing":0.99,"maxWindows":2}`,
	`{"app":"web-bytes","swing":1.5}`,
	`{"app":7,"blocks":"many"}`,
	`[]`,
}

// FuzzJobSpec: any bytes either fail to decode or build, or build a
// job whose input is within the size bounds and whose pool is the one
// Build was given. Nothing panics.
func FuzzJobSpec(f *testing.F) {
	for _, s := range specSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var spec JobSpec
		if json.Unmarshal(b, &spec) != nil {
			return
		}
		const workers = 3
		job, err := spec.Build(workers)
		if err != nil {
			return
		}
		if job.Workers != workers {
			t.Errorf("%s: Workers %d, want %d", b, job.Workers, workers)
		}
		blocks := job.Input.Blocks
		if len(blocks) == 0 || len(blocks) > maxBlocks {
			t.Fatalf("%s: built %d blocks", b, len(blocks))
		}
		if lines := blocks[0].Items; lines > maxLinesPerBlock {
			t.Errorf("%s: built blocks of %d lines", b, lines)
		}
	})
}

// FuzzStreamSpec: any bytes either fail to decode or build, or build a
// pipeline from sizes within the bounds. Nothing panics.
func FuzzStreamSpec(f *testing.F) {
	for _, s := range specSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var spec StreamSpec
		if json.Unmarshal(b, &spec) != nil {
			return
		}
		if _, err := spec.Build(); err != nil {
			return
		}
		if spec.Blocks > maxBlocks || spec.LinesPerBlock > maxLinesPerBlock {
			t.Errorf("%s: built a pipeline from %d blocks of %d lines", b, spec.Blocks, spec.LinesPerBlock)
		}
	})
}
