package mapreduce

import (
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"

	"approxhadoop/internal/vtime"
)

// TestPartitionMatchesFNV pins the inlined FNV-1a 32 loop to hash/fnv:
// same partition for empty, short, long and random binary keys at
// several reduce counts.
func TestPartitionMatchesFNV(t *testing.T) {
	keys := []string{"", "a", "page1", "proj3\x1fpage17", "\x00", "\xff\xfe"}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		keys = append(keys, string(b))
	}
	for _, key := range keys {
		h := fnv.New32a()
		h.Write([]byte(key))
		for _, reduces := range []int{1, 2, 7, 10, 64, 1 << 20} {
			if got, want := Partition(key, reduces), int(h.Sum32()%uint32(reduces)); got != want {
				t.Fatalf("Partition(%q, %d) = %d, hash/fnv gives %d", key, reduces, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Partition("proj3\x1fpage17", 10) }); allocs != 0 {
		t.Errorf("Partition allocated %v times per call, want 0", allocs)
	}
}

// TestEmitElementSteadyStateDoesNotAllocate guards the sketch map path
// per record: once a group's top-k candidate set is full, folding
// tracked elements and elements too light to evict anyone costs no
// allocation — no group-table lookup result, no clone, no scan state.
func TestEmitElementSteadyStateDoesNotAllocate(t *testing.T) {
	// A grid wide enough that no light element collides with heavy
	// ones in every row and so outranks one of them.
	plan := &SketchPlan{Kind: SketchTopK, Width: 4096}
	if err := plan.normalize(); err != nil {
		t.Fatal(err)
	}
	proto, err := plan.newSketch()
	if err != nil {
		t.Fatal(err)
	}
	e := newMapEmitter(4, false, vtime.NewDeterministic(), emitHint{})
	e.enableSketch(proto)
	heavy := make([]string, plan.Candidates)
	for i := range heavy {
		heavy[i] = "heavy" + strconv.Itoa(i)
		e.EmitElement("g", heavy[i], 1000)
	}
	light := make([]string, 500)
	for i := range light {
		light[i] = "light" + strconv.Itoa(i)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, el := range heavy {
			e.EmitElement("g", el, 1)
		}
		for _, el := range light {
			e.EmitElement("g", el, 1)
		}
	})
	if allocs != 0 {
		t.Errorf("EmitElement allocated %v times per %d records, want 0", allocs, len(heavy)+len(light))
	}
	if want := int64(len(heavy) + 21*(len(heavy)+len(light))); e.folds != want || e.pairs != 0 {
		t.Errorf("folds = %d, pairs = %d, want %d folds and no pairs", e.folds, e.pairs, want)
	}
}

// TestSketchJobSizesNoPairArenas: folds count as shuffled pairs in the
// job's counters but never reach the pair arenas, so they must not feed
// the preallocation hint of later map attempts — while plain Emit calls
// in the same job still do.
func TestSketchJobSizesNoPairArenas(t *testing.T) {
	input, _ := editLogInput(t, 6, 100)
	job := &Job{
		Name:      "topk",
		Input:     input,
		NewMapper: editMapper,
		NewReduce: func(int) ReduceLogic { return NewTopKReduce(5) },
		Reduces:   3,
		Seed:      42,
		Sketch:    &SketchPlan{Kind: SketchTopK},
	}
	if err := job.Validate(testEngine()); err != nil {
		t.Fatal(err)
	}
	proto, err := job.Sketch.newSketch()
	if err != nil {
		t.Fatal(err)
	}
	res, err := executeMap(job, input.Blocks[0], 0, 1, 1, vtime.NewDeterministic(), emitHint{}, proto)
	if err != nil {
		t.Fatal(err)
	}
	records := res.measure.Processed
	if records == 0 || res.pairs != records || res.size.pairs != 0 {
		t.Errorf("sketch map: pairs = %d, emitted = %d, want %d counted and 0 through the arenas", res.pairs, res.size.pairs, records)
	}
	job.Sketch = nil
	res, err = executeMap(job, input.Blocks[0], 0, 1, 1, vtime.NewDeterministic(), emitHint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.pairs != records || int64(res.size.pairs) != records {
		t.Errorf("pairs map: pairs = %d, emitted = %d, want %d for both", res.pairs, res.size.pairs, records)
	}
}
