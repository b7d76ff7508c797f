package mapreduce

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/sketch"
)

// splitEvenBlocks splits text into roughly the requested block count.
func splitEvenBlocks(name string, data []byte, blocks int) *dfs.File {
	return dfs.SplitText(name, data, len(data)/blocks+1)
}

// editLogInput builds a small "project<TAB>editor" edit log with known
// per-project distinct-editor counts and per-page tallies.
func editLogInput(t *testing.T, blocks, linesPerBlock int) (*dfs.File, map[string]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	var sb strings.Builder
	distinct := map[string]map[string]struct{}{}
	for b := 0; b < blocks; b++ {
		for l := 0; l < linesPerBlock; l++ {
			proj := fmt.Sprintf("proj%d", rng.Intn(10))
			editor := fmt.Sprintf("editor%d", rng.Intn(2000))
			if distinct[proj] == nil {
				distinct[proj] = map[string]struct{}{}
			}
			distinct[proj][editor] = struct{}{}
			fmt.Fprintf(&sb, "%s\t%s\n", proj, editor)
		}
	}
	want := map[string]float64{}
	for p, eds := range distinct {
		want[p] = float64(len(eds))
	}
	data := []byte(sb.String())
	return splitEvenBlocks("edits.log", data, blocks), want
}

// editMapper parses "project<TAB>editor" and emits the editor as a
// grouped element.
func editMapper() Mapper {
	return MapperFunc(func(rec Record, emit Emitter) {
		i := strings.IndexByte(rec.Value, '\t')
		if i < 0 {
			return
		}
		EmitElement(emit, rec.Value[:i], rec.Value[i+1:], 1)
	})
}

// distinctJob builds the distinct-editors job in either representation.
func distinctJob(input *dfs.File, useSketch bool, workers int) *Job {
	j := &Job{
		Name:      "distinct-editors",
		Input:     input,
		NewMapper: editMapper,
		NewReduce: func(int) ReduceLogic { return NewDistinctReduce() },
		Reduces:   3,
		Seed:      42,
		Workers:   workers,
	}
	if useSketch {
		j.Sketch = &SketchPlan{Kind: SketchDistinct}
	} else {
		j.Combine = true
	}
	return j
}

// TestSketchJobDeterminism proves (job, seed) → byte-identical output
// for any Workers count, in both sketch kinds that ride the job path.
func TestSketchJobDeterminism(t *testing.T) {
	input, _ := editLogInput(t, 12, 150)
	render := func(job *Job) []byte {
		res, err := Run(testEngine(), job)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, useSketch := range []bool{true, false} {
		base := render(distinctJob(input, useSketch, 1))
		for _, workers := range []int{2, 4, 7} {
			got := render(distinctJob(input, useSketch, workers))
			if !bytes.Equal(base, got) {
				t.Errorf("sketch=%v: Workers=%d output differs from Workers=1", useSketch, workers)
			}
		}
	}
	// Top-k determinism across worker counts.
	topk := func(workers int) []byte {
		j := &Job{
			Name:      "topk",
			Input:     input,
			NewMapper: editMapper,
			NewReduce: func(int) ReduceLogic { return NewTopKReduce(5) },
			Reduces:   3,
			Seed:      42,
			Workers:   workers,
			Sketch:    &SketchPlan{Kind: SketchTopK, K: 5},
		}
		return render(j)
	}
	base := topk(1)
	for _, workers := range []int{3, 6} {
		if !bytes.Equal(base, topk(workers)) {
			t.Errorf("topk: Workers=%d output differs from Workers=1", workers)
		}
	}
}

// TestDistinctSketchVsExact runs the same job under both
// representations: the HLL estimates must land within the advertised
// relative error of the exact pairs-run values, and the sketch run
// must shuffle at least 5x fewer bytes — the PR's core claim.
func TestDistinctSketchVsExact(t *testing.T) {
	input, want := editLogInput(t, 24, 250)

	exactRes, err := Run(testEngine(), distinctJob(input, false, 1))
	if err != nil {
		t.Fatal(err)
	}
	skRes, err := Run(testEngine(), distinctJob(input, true, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(exactRes.Outputs) != len(want) || len(skRes.Outputs) != len(want) {
		t.Fatalf("key counts: exact %d, sketch %d, want %d",
			len(exactRes.Outputs), len(skRes.Outputs), len(want))
	}
	relStdErr := 1.04 / math.Sqrt(1<<11) // default plan precision
	for _, o := range exactRes.Outputs {
		//lint:ignore nofloateq exact run counts integer-valued distinct sets; any drift is a bug
		if !o.Exact || o.Est.Value != want[o.Key] {
			t.Errorf("exact run %s = %v (exact=%v), want %v", o.Key, o.Est.Value, o.Exact, want[o.Key])
		}
	}
	for _, o := range skRes.Outputs {
		truth := want[o.Key]
		rel := math.Abs(o.Est.Value-truth) / truth
		if rel > 5*relStdErr {
			t.Errorf("sketch %s = %.1f, truth %.0f: relative error %.3f > 5×%.3f",
				o.Key, o.Est.Value, truth, rel, relStdErr)
		}
		if o.Exact {
			t.Errorf("%s: sketch estimate must not claim exactness", o.Key)
		}
		if o.Est.Err <= 0 || truth < o.Est.Lo() || truth > o.Est.Hi() {
			// The CI is z·stderr at 95%; allow the expected miss rate
			// by only requiring the bound to exist and be plausible.
			if o.Est.Err <= 0 {
				t.Errorf("%s: missing error bound", o.Key)
			}
		}
	}
	pairsBytes := exactRes.Counters.ShuffleBytes
	skBytes := skRes.Counters.ShuffleBytes
	if pairsBytes <= 0 || skBytes <= 0 {
		t.Fatalf("shuffle bytes not accounted: pairs %d, sketch %d", pairsBytes, skBytes)
	}
	if skBytes*5 > pairsBytes {
		t.Errorf("sketch shuffle %d bytes not ≥5x below pairs %d (ratio %.1fx)",
			skBytes, pairsBytes, float64(pairsBytes)/float64(skBytes))
	}
	if exactRes.Counters.PairsShuffled <= 0 || skRes.Counters.PairsShuffled <= 0 {
		t.Errorf("PairsShuffled counters missing")
	}
}

// TestTopKSketchMatchesExact checks the sketch top-k finds the true
// heavy hitters (well-separated Zipf-ish weights) with CMS-bounded
// counts, against the exact pairs run.
func TestTopKSketchMatchesExact(t *testing.T) {
	// Pages with strongly separated weights: page i appears 600-30·i
	// times per round, plus light noise pages.
	var sb strings.Builder
	rng := rand.New(rand.NewSource(5))
	lines := []string{}
	for i := 0; i < 12; i++ {
		for n := 0; n < 600-30*i; n++ {
			lines = append(lines, fmt.Sprintf("all\tpage%02d", i))
		}
	}
	for i := 0; i < 2500; i++ {
		lines = append(lines, fmt.Sprintf("all\tnoise%d", rng.Intn(1200)))
	}
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	input := splitEvenBlocks("pages.log", []byte(sb.String()), 16)

	mk := func(useSketch bool) *Job {
		j := &Job{
			Name:      "toppages",
			Input:     input,
			NewMapper: editMapper,
			NewReduce: func(int) ReduceLogic { return NewTopKReduce(8) },
			Reduces:   2,
			Seed:      7,
		}
		if useSketch {
			// A wider, deeper grid than the default: with ~1200 light
			// keys a 256×3 grid has a noticeable chance of hoisting one
			// noise key over the lightest heavy hitter (the documented
			// CMS failure mode); 1024×4 makes that negligible.
			j.Sketch = &SketchPlan{Kind: SketchTopK, K: 8, Width: 1024, Depth: 4}
		} else {
			j.Combine = true
		}
		return j
	}
	exactRes, err := Run(testEngine(), mk(false))
	if err != nil {
		t.Fatal(err)
	}
	skRes, err := Run(testEngine(), mk(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(exactRes.Outputs) != 8 || len(skRes.Outputs) != 8 {
		t.Fatalf("top-8 sizes: exact %d, sketch %d", len(exactRes.Outputs), len(skRes.Outputs))
	}
	for i, o := range skRes.Outputs {
		eo := exactRes.Outputs[i]
		if o.Key != eo.Key {
			t.Errorf("rank-set mismatch at %d: sketch %q, exact %q", i, o.Key, eo.Key)
			continue
		}
		// CMS never underestimates and overestimates within ε·W (the
		// reported bound).
		if o.Est.Value < eo.Est.Value {
			t.Errorf("%s: sketch count %.0f below exact %.0f", o.Key, o.Est.Value, eo.Est.Value)
		}
		if o.Est.Value > eo.Est.Value+o.Est.Err {
			t.Errorf("%s: sketch count %.0f exceeds exact %.0f + bound %.0f",
				o.Key, o.Est.Value, eo.Est.Value, o.Est.Err)
		}
	}
}

// TestSketchReducerMergeOrder feeds identical MapOutputs to reducers in
// permuted orders: finalized estimates must match exactly.
func TestSketchReducerMergeOrder(t *testing.T) {
	outs := make([]*MapOutput, 6)
	for i := range outs {
		outs[i] = mapOutput(t, i, 50, 50, false, &SketchPlan{Kind: SketchDistinct}, func(e Emitter) {
			for j := 0; j < 50; j++ {
				EmitElement(e, "projA", fmt.Sprintf("editor%d", (i*37+j*13)%160), 1)
			}
		})
	}
	view := EstimateView{TotalMaps: 6, Confidence: 0.95}
	finalize := func(order []int) []KeyEstimate {
		r := NewDistinctReduce()
		for _, i := range order {
			r.Consume(outs[i])
		}
		return r.Finalize(view)
	}
	a := finalize([]int{0, 1, 2, 3, 4, 5})
	b := finalize([]int{5, 3, 1, 0, 2, 4})
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("output sizes %d/%d", len(a), len(b))
	}
	if a[0] != b[0] {
		t.Errorf("consume order changed the estimate: %+v vs %+v", a[0], b[0])
	}
}

// TestSampledSketchWidensError checks sampling composes into the
// sketch estimate: identical sketch content with m_i < M_i must report
// a strictly wider bound and never exactness.
func TestSampledSketchWidensError(t *testing.T) {
	mk := func(items, sampled int64) []KeyEstimate {
		r := NewDistinctReduce()
		r.Consume(mapOutput(t, 0, items, sampled, false, &SketchPlan{Kind: SketchDistinct}, func(e Emitter) {
			for j := 0; j < 200; j++ {
				EmitElement(e, "g", fmt.Sprintf("e%d", j), 1)
			}
		}))
		return r.Finalize(EstimateView{TotalMaps: 1, Confidence: 0.95})
	}
	full := mk(200, 200)
	half := mk(400, 200)
	if len(full) != 1 || len(half) != 1 {
		t.Fatal("missing outputs")
	}
	if full[0].Exact || half[0].Exact {
		t.Error("sketch estimates must not be exact")
	}
	if !(half[0].Est.Err > full[0].Est.Err) {
		t.Errorf("sampling did not widen the bound: full ±%.2f, sampled ±%.2f",
			full[0].Est.Err, half[0].Est.Err)
	}
	// The widened interval must cover the worst case of all-unseen
	// units being new: value + value·(1/cov − 1) reaches value/cov.
	if hi := half[0].Est.Hi(); hi < half[0].Est.Value*2*0.99 {
		t.Errorf("sampled interval hi %.1f below worst-case %.1f", hi, half[0].Est.Value*2)
	}
}

// TestMembershipReduce exercises the Bloom path end to end at the
// reducer level: no false negatives, count estimate near truth, and
// the pairs path exact.
func TestMembershipReduce(t *testing.T) {
	r := NewMembershipReduce()
	for task := 0; task < 4; task++ {
		r.Consume(mapOutput(t, task, 100, 100, false, &SketchPlan{Kind: SketchMembership}, func(e Emitter) {
			for j := 0; j < 100; j++ {
				EmitElement(e, "seen", fmt.Sprintf("user%d", task*100+j), 1)
			}
		}))
	}
	view := EstimateView{TotalMaps: 4, Confidence: 0.95}
	outs := r.Finalize(view)
	if len(outs) != 1 || outs[0].Key != "seen" {
		t.Fatalf("outputs: %+v", outs)
	}
	if v := outs[0].Est.Value; math.Abs(v-400)/400 > 0.2 {
		t.Errorf("member count estimate %.0f, want ≈400", v)
	}
	for j := 0; j < 400; j++ {
		if in, _ := r.Contains("seen", fmt.Sprintf("user%d", j)); !in {
			t.Fatalf("false negative for user%d", j)
		}
	}
	in, fpr := r.Contains("seen", "user401")
	if in && fpr <= 0 {
		t.Error("positive answer without an FPR")
	}

	// Pairs path: exact sets.
	rp := NewMembershipReduce()
	rp.Consume(mapOutput(t, 0, 2, 2, false, nil, func(e Emitter) {
		EmitElement(e, "g", "alice", 1)
		EmitElement(e, "g", "bob", 1)
	}))
	pouts := rp.Finalize(EstimateView{TotalMaps: 1, Confidence: 0.95})
	//lint:ignore nofloateq the pairs path counts an integer-valued exact set
	if len(pouts) != 1 || !pouts[0].Exact || pouts[0].Est.Value != 2 {
		t.Errorf("pairs membership: %+v", pouts)
	}
	if in, fpr := rp.Contains("g", "alice"); !in || fpr != 0 {
		t.Errorf("exact Contains(alice) = %v, %v", in, fpr)
	}
	if in, _ := rp.Contains("g", "carol"); in {
		t.Error("exact Contains(carol) = true")
	}
}

// TestCombinerLossyMarker is the satellite: a non-combiner-safe reduce
// function composed with Job.Combine must flag its outputs Lossy
// instead of silently reporting a wrong value; sum must stay clean.
func TestCombinerLossyMarker(t *testing.T) {
	input, want := wordCountInput(t, 256)

	minJob := &Job{
		Name:      "min-combined",
		Input:     input,
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return MinReduce() },
		Reduces:   2,
		Combine:   true,
	}
	res := runWordCount(t, minJob)
	if len(res.Outputs) == 0 {
		t.Fatal("no outputs")
	}
	sawLossy := false
	for _, o := range res.Outputs {
		if o.Lossy {
			sawLossy = true
			if o.Exact {
				t.Errorf("%s: lossy output claims exactness", o.Key)
			}
			if !math.IsNaN(o.Est.Err) {
				t.Errorf("%s: lossy output carries a bound %v", o.Key, o.Est.Err)
			}
		}
	}
	if !sawLossy {
		t.Error("min over combined outputs not flagged combiner-lossy")
	}

	var buf bytes.Buffer
	if err := WriteText(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(combiner-lossy)") {
		t.Error("WriteText does not surface the combiner-lossy marker")
	}
	buf.Reset()
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var js struct {
		Outputs []struct {
			Lossy bool `json:"lossy"`
		} `json:"outputs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	lossyJSON := false
	for _, o := range js.Outputs {
		lossyJSON = lossyJSON || o.Lossy
	}
	if !lossyJSON {
		t.Error("WriteJSON does not surface the lossy field")
	}

	// Sum is combiner-safe: same input, no marker, exact values.
	sumJob := &Job{
		Name:      "sum-combined",
		Input:     input,
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
		Reduces:   2,
		Combine:   true,
	}
	sres := runWordCount(t, sumJob)
	for _, o := range sres.Outputs {
		if o.Lossy || !o.Exact {
			t.Errorf("sum %s flagged lossy=%v exact=%v", o.Key, o.Lossy, o.Exact)
		}
		//lint:ignore nofloateq integer-weight sums fold exactly; any drift is a bug
		if o.Est.Value != want[o.Key] {
			t.Errorf("sum %s = %v, want %v", o.Key, o.Est.Value, want[o.Key])
		}
	}
}

// TestEmitElementFallbackPartitioning checks the composite-pair
// fallback partitions by group: with several reduce partitions every
// group must appear exactly once in the merged outputs.
func TestEmitElementFallbackPartitioning(t *testing.T) {
	input, want := editLogInput(t, 8, 120)
	j := distinctJob(input, false, 1)
	j.Reduces = 4
	res, err := Run(testEngine(), j)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, o := range res.Outputs {
		seen[o.Key]++
		//lint:ignore nofloateq integer-weight sums fold exactly; any drift is a bug
		if o.Est.Value != want[o.Key] {
			t.Errorf("%s = %v, want %v", o.Key, o.Est.Value, want[o.Key])
		}
	}
	for g, n := range seen {
		if n != 1 {
			t.Errorf("group %s split across %d partitions", g, n)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("%d groups, want %d", len(seen), len(want))
	}
}

// TestShuffleBytesAccounting checks both the per-job counter and the
// process-wide accumulator move, and that ShuffleSize covers every
// representation.
func TestShuffleBytesAccounting(t *testing.T) {
	input, _ := editLogInput(t, 6, 80)
	before := TotalShuffleBytes()
	res, err := Run(testEngine(), distinctJob(input, true, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.ShuffleBytes <= 0 {
		t.Error("Counters.ShuffleBytes not accounted")
	}
	if got := TotalShuffleBytes() - before; got < res.Counters.ShuffleBytes {
		t.Errorf("TotalShuffleBytes advanced %d, job counted %d", got, res.Counters.ShuffleBytes)
	}

	// Representation unit checks.
	raw := mapOutput(t, 0, 0, 0, false, nil, emitValues("abc", 1))
	if got := raw.ShuffleSize(); got != shuffleHeaderBytes+3+shufflePairBytes {
		t.Errorf("raw ShuffleSize %d", got)
	}
	comb := mapOutput(t, 0, 0, 0, true, nil, emitValues("abc", 1, 2))
	if got := comb.ShuffleSize(); got != shuffleHeaderBytes+3+shuffleCombinedBytes {
		t.Errorf("combined ShuffleSize %d", got)
	}
	h, err := sketch.NewHLL(11, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.Fold("x", 1)
	sk := mapOutput(t, 0, 0, 0, false, &SketchPlan{Kind: SketchDistinct}, func(e Emitter) { EmitElement(e, "g", "x", 1) })
	if got := sk.ShuffleSize(); got != int64(shuffleHeaderBytes+1+shuffleGroupBytes+h.SizeBytes()) {
		t.Errorf("sketch ShuffleSize %d", got)
	}
}
