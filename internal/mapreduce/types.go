// Package mapreduce implements a Hadoop-style MapReduce framework on
// top of the dfs and cluster packages: a JobTracker schedules one map
// task per input block onto simulated TaskTracker slots (locality
// aware), map outputs are hash-partitioned and shuffled to reduce
// tasks, and reduce tasks consume outputs either incrementally
// (barrier-less, following Verma et al., which ApproxHadoop requires
// for online error estimation) or after a conventional barrier.
//
// The approximation hooks are exactly the paper's Section 4.3
// modifications: map tasks run in random order, a Controller can direct
// per-task input sampling ratios and drop pending or kill running
// tasks, and dropped maps are tracked so job completion is detected
// despite them never finishing.
package mapreduce

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/sketch"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/vtime"
	"approxhadoop/internal/zerocopy"
)

// Record is one input record handed to a map function: Value is the
// record's content (for text inputs, the line) and Block and Index say
// where it came from. A reader fills in the position and nothing more;
// Key renders it as text for the mapper that wants Hadoop's record key,
// so the jobs that never look at it (every one in this tree) pay
// nothing per record for it.
//
// Lifetime: Value is a view of the block's bytes (or of the reader's
// line buffer) — valid only for the duration of the Map call, exactly
// Hadoop's Writable-reuse contract. Mappers that retain a record past
// Map must copy Value; emitting (sub)strings of it is always safe
// because the emitter interns every key on first sight. Block, Index
// and the string Key returns carry no such restriction.
type Record struct {
	Block *dfs.Block // the block being read; nil for records built by hand
	Index int64      // the record's index within the block, counting unsampled records too
	Value string
}

// Key returns the record's position as "blockID:index", the key Hadoop's
// TextInputFormat would hand the mapper beside the line.
func (r Record) Key() string {
	id := ""
	if r.Block != nil {
		id = r.Block.ID()
	}
	return id + ":" + strconv.FormatInt(r.Index, 10)
}

// Emitter receives intermediate pairs from a map function.
//
//approx:pure
type Emitter interface {
	Emit(key string, value float64)
}

// ElementEmitter is the grouped-element extension of Emitter that the
// sketch plane consumes: EmitElement declares "element occurred weight
// times within group" instead of handing over an opaque (key, value)
// pair. Under a Job.Sketch plan the framework folds the element into
// the group's fixed-size sketch; without a plan it degrades to the
// composite pair group+ElementSep+element (partitioned by group, so
// each group still lands on exactly one reduce) — the O(keys) baseline
// the sketch representation is measured against. The framework emitter
// implements this.
//
//approx:pure
type ElementEmitter interface {
	EmitElement(group, element string, weight float64)
}

// ElementSep joins group and element in the composite-pair fallback.
// 0x1f is ASCII Unit Separator — absent from the text workloads.
const ElementSep = "\x1f"

// EmitElement routes a grouped element through emit: the framework's
// ElementEmitter fast path when available, otherwise the composite-pair
// encoding. Mappers for distinct/top-k/membership jobs call this and
// work identically under both the sketch and pairs representations.
func EmitElement(emit Emitter, group, element string, weight float64) {
	if ee, ok := emit.(ElementEmitter); ok {
		ee.EmitElement(group, element, weight)
		return
	}
	emit.Emit(group+ElementSep+element, weight)
}

// SplitElement decomposes a composite pair key produced by the
// EmitElement fallback. Keys without a separator were emitted by plain
// Emit; they are returned as a bare element with an empty group.
func SplitElement(key string) (group, element string) {
	for i := 0; i < len(key); i++ {
		if key[i] == ElementSep[0] {
			return key[:i], key[i+1:]
		}
	}
	return "", key
}

// Mapper is user map() code. One instance is created per map task, so
// implementations may keep per-task state without synchronization.
//
//approx:pure
type Mapper interface {
	Map(rec Record, emit Emitter)
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(rec Record, emit Emitter)

// Map implements Mapper.
func (f MapperFunc) Map(rec Record, emit Emitter) { f(rec, emit) }

// ReaderMeasure reports what a RecordReader has done so far.
type ReaderMeasure struct {
	Items    int64   // records seen in the block (M_i so far)
	Sampled  int64   // records returned to the caller (m_i so far)
	Bytes    int64   // raw bytes scanned
	ReadSecs float64 // metered seconds spent reading/parsing
}

// MeterSetter is implemented by RecordReaders that account their read
// cost against a compute meter. The framework injects the job's meter
// right after InputFormat.Open; readers fall back to a private
// deterministic meter when used standalone.
//
//approx:pure
type MeterSetter interface {
	SetMeter(m vtime.Meter)
}

// RecordReader reads the records of one block, possibly only a sample
// of them. It has one mode: Push drives the block through the mapper.
//
//approx:pure
type RecordReader interface {
	RecordPusher
	// Measure returns read statistics accumulated so far; they are
	// final once Push has returned.
	Measure() ReaderMeasure
	// Close releases whatever the reader holds.
	Close() error
}

// InputFormat opens blocks for reading. sampleRatio in (0, 1] asks a
// sampling-aware format to return roughly that fraction of records;
// precise formats process everything regardless (and should be paired
// with ratio 1). seed makes sampling deterministic per task attempt.
//
//approx:pure
type InputFormat interface {
	Open(b *dfs.Block, sampleRatio float64, seed int64) (RecordReader, error)
}

// RecordPusher is how a block is read: the reader drives the whole
// block through fn itself, once, in record order, yielding zero-copy
// records (see the Record lifetime contract) and metering its reads in
// one OpRead bracket per record it hands over — the units and bytes of
// records it skipped ride in the bracket of the next one returned, and
// a last bracket closes at the end of the block. ok=false means the
// reader declined: it consumed nothing and called fn for nothing. There
// is no other read mode to fall back to, so the framework fails the
// attempt; the readers in this tree never decline.
//
//approx:pure
type RecordPusher interface {
	Push(fn func(rec Record)) (ok bool, err error)
}

// MapOutput is what one completed map task delivers to one reduce
// partition: the task/cluster identity, the block unit counts needed by
// multi-stage sampling (Section 4.4 — "each map task tags each
// key/value pair with its unique task ID" and forwards M_i and m_i),
// and the payload: raw pairs or combiner aggregates (depending on
// Job.Combine), plus one sketch per group under Job.Sketch.
//
// The payload is keyed by interned IDs into structures shared by all
// partitions of the attempt, string resolution deferred to reduce time;
// reducers read it through EachPair / EachCombined / EachSketch /
// PairLen. executeMap builds outputs for jobs and NewMapOutput builds
// them for everything else, through the same emitter.
type MapOutput struct {
	TaskID  int   // map task index; the sampling "cluster" identifier
	Items   int64 // M_i: data items in the task's block
	Sampled int64 // m_i: items actually processed

	// keys is the attempt's interner; run is this partition's raw
	// (keyID, value) pairs in emit order; combIDs lists this partition's
	// distinct key IDs in first-emit order (non-nil marks the output
	// combined), whose (count, sum, sumsq) aggregates — lossless for
	// aggregation reducers — live in the attempt-wide dense combStats
	// slice indexed by key ID.
	keys      *keyTable
	run       []idPair
	combIDs   []int32
	combStats []stats.RunningStat

	// Sketch payload (Job.Sketch): groups is the attempt's group
	// interner, sketchIDs this partition's group IDs in first-emit
	// order, and sketches the attempt-wide dense slice indexed by group
	// ID — one fixed-size mergeable sketch per group, so the partition's
	// shuffle volume is O(groups·sketchSize) however many records the
	// task folded. Sketches are shared (attempt results are memoized
	// across speculative attempts), so consumers must Clone before
	// merging.
	groups    *keyTable
	sketchIDs []int32
	sketches  []sketch.Sketch
}

// NewMapOutput builds a MapOutput outside a job, for tests and for
// reducers driven by hand: what map task taskID would deliver to the
// single reduce of a job with these Combine and Sketch settings had its
// mapper made the calls emit makes (Emit, or EmitElement through the
// package-level helper) over a block of items records, sampled of them
// read. It runs the emitter a job runs, so keys reach the reducer in
// first-emit order here as there. plan is normalized in place, as
// Job.Validate would.
//
//lint:ignore deadcode internal/approx's tests drive reducers by hand through it
func NewMapOutput(taskID int, items, sampled int64, combine bool, plan *SketchPlan, emit func(Emitter)) (*MapOutput, error) {
	e := newMapEmitter(1, combine, vtime.NewDeterministic(), emitHint{})
	if plan != nil {
		if err := plan.normalize(); err != nil {
			return nil, err
		}
		proto, err := plan.newSketch()
		if err != nil {
			return nil, err
		}
		e.enableSketch(proto)
	}
	emit(e)
	return e.outputs(taskID, items, sampled)[0], nil
}

// idPair is one shuffled intermediate pair: an interned key ID and its
// value. 16 bytes, and no per-pair string header to trace during GC.
type idPair struct {
	id int32
	v  float64
}

// IsCombined reports whether the output carries combiner-aggregated
// per-key statistics rather than raw pairs.
func (o *MapOutput) IsCombined() bool { return o.combIDs != nil }

// IsSketch reports whether the output carries per-group sketches.
func (o *MapOutput) IsSketch() bool { return o.groups != nil }

// PairLen returns the number of payload entries: raw pairs or distinct
// keys for combined outputs, plus groups for sketch outputs. It is the
// unit count reduce-side cost accounting charges.
func (o *MapOutput) PairLen() int {
	return len(o.sketchIDs) + len(o.combIDs) + len(o.run) // an output has pairs or aggregates, never both
}

// EachPair calls fn for every raw pair in shuffle (emit) order. Keys
// handed to fn are interned arena strings, so reducers may retain them
// without copying.
//
//approx:hotpath
func (o *MapOutput) EachPair(fn func(key string, value float64)) {
	for _, p := range o.run {
		fn(o.keys.Resolve(p.id), p.v)
	}
}

// EachCombined calls fn for every per-key aggregate of a combined
// output, in first-emit order. Keys are durable.
//
//approx:hotpath
func (o *MapOutput) EachCombined(fn func(key string, rs stats.RunningStat)) {
	for _, id := range o.combIDs {
		fn(o.keys.Resolve(id), o.combStats[id])
	}
}

// EachStat calls fn with every key's (count, sum, sumsq) in first-emit
// order, whichever payload the output carries: a combined output's
// aggregates as they are, raw pairs folded per key in emit order exactly
// as the combiner folds them. Keys are durable.
//
//approx:hotpath
func (o *MapOutput) EachStat(fn func(key string, rs stats.RunningStat)) {
	if o.IsCombined() {
		o.EachCombined(fn)
		return
	}
	if len(o.run) == 0 {
		return
	}
	// slot maps a key ID to its place in acc, which holds the keys in
	// first-emit order.
	slot := make(map[int32]int32)
	acc := make([]idStat, 0, len(o.run))
	for _, p := range o.run {
		i, ok := slot[p.id]
		if !ok {
			i = int32(len(acc))
			slot[p.id] = i
			acc = append(acc, idStat{id: p.id})
		}
		acc[i].rs.Add(p.v)
	}
	for i := range acc {
		fn(o.keys.Resolve(acc[i].id), acc[i].rs)
	}
}

// idStat is one key's fold in EachStat.
type idStat struct {
	id int32
	rs stats.RunningStat
}

// EachSketch calls fn for every (group, sketch) of a sketch output, in
// first-emit order. Group keys are durable; sketches are shared
// payload — Clone before mutating.
//
//approx:hotpath
func (o *MapOutput) EachSketch(fn func(group string, s sketch.Sketch)) {
	for _, id := range o.sketchIDs {
		fn(o.groups.Resolve(id), o.sketches[id])
	}
}

// Per-entry wire-size constants for ShuffleSize: what a compact binary
// shuffle format would spend beyond the key bytes. A raw pair carries a
// float64 value plus a ~1-byte length prefix; a combined entry carries
// (count, sum, sumsq) plus the prefix; every entry kind pays the
// prefix; each output pays a fixed header (task ID and the M_i/m_i
// cluster counts).
const (
	shuffleHeaderBytes   = 24
	shufflePairBytes     = 9
	shuffleCombinedBytes = 25
	shuffleGroupBytes    = 4 // group-key length prefix + sketch length
)

// ShuffleSize returns the output's modeled shuffle cost in bytes: the
// size of a compact binary encoding of its payload (sketches use their
// exact canonical serialized size). This is what Counters.ShuffleBytes
// accumulates — the quantity the sketch representation collapses from
// O(keys folded) to O(1) per partition.
func (o *MapOutput) ShuffleSize() int64 {
	n := int64(shuffleHeaderBytes)
	for _, id := range o.sketchIDs {
		n += int64(len(o.groups.Resolve(id))) + shuffleGroupBytes + int64(o.sketches[id].SizeBytes())
	}
	for _, id := range o.combIDs {
		n += int64(len(o.keys.Resolve(id))) + shuffleCombinedBytes
	}
	for _, p := range o.run {
		n += int64(len(o.keys.Resolve(p.id))) + shufflePairBytes
	}
	return n
}

// KeyEstimate is one final (or in-flight) output: a key and its
// estimate with confidence interval. Exact marks values computed from
// complete data (no sampling, no dropping), whose interval is zero.
// Lossy marks values a combiner silently pre-aggregated for a reduce
// function that is not combiner-safe: the value may be wrong, not just
// imprecise, and writers surface the marker instead of the number
// standing alone.
type KeyEstimate struct {
	Key   string
	Est   stats.Estimate
	Exact bool
	Lossy bool
}

// SortByKey orders outputs by key, the order of Result.Outputs and of
// every ReduceLogic's Finalize; equal keys keep their order. It sorts
// 16-byte ranks — a key's first eight bytes as a big-endian integer and
// the element's index — comparing whole keys only where those bytes
// tie, then moves each 64-byte element once, along the cycles of the
// permutation. From radixMin outputs on, the ranks are sorted by a
// stable radix sort of the prefixes and then each run of equal
// prefixes by whole key; below it, by one comparison sort.
func SortByKey(out []KeyEstimate) {
	if len(out) < 2 {
		return
	}
	size := len(out)
	if size >= radixMin {
		size *= 2 // the radix sort's scatter buffer
	}
	ranks := make([]keyRank, len(out), size)
	for i := range out {
		ranks[i] = keyRank{prefix: zerocopy.Prefix64(out[i].Key), idx: i}
	}
	byKey := func(a, b keyRank) int { return strings.Compare(out[a.idx].Key, out[b.idx].Key) }
	if len(out) < radixMin {
		slices.SortFunc(ranks, func(a, b keyRank) int {
			if a.prefix != b.prefix {
				return cmp.Compare(a.prefix, b.prefix)
			}
			if c := byKey(a, b); c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx)
		})
	} else {
		radixByPrefix(ranks, ranks[len(out):size])
		// A run of equal prefixes is in index order: sorting it stably
		// by key leaves equal keys in index order.
		for i := 0; i < len(ranks); {
			j := i + 1
			for j < len(ranks) && ranks[j].prefix == ranks[i].prefix {
				j++
			}
			if j-i > 1 {
				slices.SortStableFunc(ranks[i:j], byKey)
			}
			i = j
		}
	}
	// Position k takes out[ranks[k].idx]; a visited position's idx is -1.
	for start := range ranks {
		if ranks[start].idx == start || ranks[start].idx < 0 {
			continue
		}
		held := out[start]
		for k := start; ; {
			src := ranks[k].idx
			ranks[k].idx = -1
			if src == start {
				out[k] = held
				break
			}
			out[k] = out[src]
			k = src
		}
	}
}

// radixMin is the fewest outputs SortByKey radix-sorts: on 8-byte page
// keys the radix sort's eight 256-bucket passes cost more than a
// comparison sort of 200 ranks and half as much at 1 400.
const radixMin = 256

// radixByPrefix sorts ranks by prefix, stably, with spare (as long as
// ranks) as the scatter buffer: one counting pass per prefix byte, least
// significant first, and no scatter for a byte every prefix shares.
func radixByPrefix(ranks, spare []keyRank) {
	src, dst := ranks, spare
	for shift := 0; shift < 64; shift += 8 {
		var at [256]int
		for _, r := range src {
			at[byte(r.prefix>>shift)]++
		}
		if at[byte(src[0].prefix>>shift)] == len(src) {
			continue
		}
		sum := 0
		for b, n := range at {
			at[b] = sum
			sum += n
		}
		for _, r := range src {
			b := byte(r.prefix >> shift)
			dst[at[b]] = r
			at[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ranks[0] {
		copy(ranks, src)
	}
}

// keyRank is one element's place in SortByKey.
type keyRank struct {
	prefix uint64
	idx    int
}

// keyPrefixes returns the SortByKey prefix of every output's key.
func keyPrefixes(out []KeyEstimate) []uint64 {
	ps := make([]uint64, len(out))
	for i := range out {
		ps[i] = zerocopy.Prefix64(out[i].Key)
	}
	return ps
}

// sortedByKey reports whether out, whose keys' prefixes are ps, is in
// SortByKey's order; it compares whole keys only where prefixes tie.
func sortedByKey(out []KeyEstimate, ps []uint64) bool {
	for i := 1; i < len(out); i++ {
		if ps[i] < ps[i-1] || ps[i] == ps[i-1] && out[i].Key < out[i-1].Key {
			return false
		}
	}
	return true
}

// mergeByKey merges runs, each sorted by key, into out, which is as
// long as the runs together, in key order; on equal keys the earlier
// run's elements come first. prefixes[p] holds the keyPrefixes of
// runs[p]: heads compare by them first and read whole keys only where
// they tie, and the heap of heads holds no pointers.
func mergeByKey(out []KeyEstimate, runs [][]KeyEstimate, prefixes [][]uint64) {
	// A min-heap of the runs still holding elements, by head key and
	// then run index; runs[run][pos] is a run's head.
	type head struct {
		prefix   uint64
		run, pos int
	}
	h := make([]head, 0, len(runs))
	less := func(a, b *head) bool {
		if a.prefix != b.prefix {
			return a.prefix < b.prefix
		}
		if c := strings.Compare(runs[a.run][a.pos].Key, runs[b.run][b.pos].Key); c != 0 {
			return c < 0
		}
		return a.run < b.run
	}
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(h) && less(&h[l], &h[m]) {
				m = l
			}
			if r := 2*i + 2; r < len(h) && less(&h[r], &h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for p, r := range runs {
		if len(r) > 0 {
			h = append(h, head{prefixes[p][0], p, 0})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for k := 0; len(h) > 0; k++ {
		top := &h[0]
		run := runs[top.run]
		out[k] = run[top.pos]
		if top.pos++; top.pos == len(run) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			top.prefix = prefixes[top.run][top.pos]
		}
		down(0)
	}
}

// EstimateView gives ReduceLogic the job-level facts needed to evaluate
// the estimators: the population cluster count N and the confidence.
// What the reducer itself consumed is its Tally.
type EstimateView struct {
	TotalMaps  int     // N: clusters in the population
	Dropped    int     // dropped or killed maps so far
	Confidence float64 // e.g. 0.95
}

// Tally is the first-stage bookkeeping of the cluster estimators
// (Sections 3.1 and 4.4) that every ReduceLogic keeps: the clusters
// consumed, their units ΣM_i, ΣM_i² and sampled units Σm_i, and whether
// any cluster was sampled. The sums are integers, so they are exact and
// the same for every order the clusters arrive in.
type Tally struct {
	n       int   // clusters consumed
	units   int64 // Σ M_i
	unitsSq int64 // Σ M_i²
	sampled int64 // Σ m_i
	partial bool  // some cluster had m_i < M_i
}

// Add records one consumed map output, the cluster of its task.
//
//approx:hotpath
func (t *Tally) Add(out *MapOutput) {
	t.n++
	t.units += out.Items
	t.unitsSq += out.Items * out.Items
	t.sampled += out.Sampled
	if out.Sampled < out.Items {
		t.partial = true
	}
}

// Clusters returns n, the clusters consumed.
func (t *Tally) Clusters() int { return t.n }

// Units returns ΣM_i over the consumed clusters.
func (t *Tally) Units() int64 { return t.units }

// SampledUnits returns Σm_i, the units actually processed.
func (t *Tally) SampledUnits() int64 { return t.sampled }

// Exact reports whether the consumed clusters are the whole input read
// in full: no unit sampled away, no cluster dropped, every cluster in.
func (t *Tally) Exact(view EstimateView) bool {
	return !t.partial && view.Dropped == 0 && t.n == view.TotalMaps
}

// Design returns the consumed clusters as the cluster-level half of the
// two-stage sample that view's job draws.
func (t *Tally) Design(view EstimateView) stats.Design {
	return stats.NewDesign(int64(view.TotalMaps), t.n, t.units, t.unitsSq, view.Confidence, t.Exact(view))
}

// ReduceLogic is the reduce-side computation for one partition. The
// framework calls Consume once per completed map task (with that task's
// slice of the shuffle), possibly interleaved with Estimates calls from
// the controller, and Finalize exactly once at the end.
//
// One logic is only ever used by one goroutine at a time, but not
// always the same one: the end of a partition — its last Consume calls
// in barrier mode, then Finalize — runs on the job's worker pool, and
// the Finalize calls of different partitions may run at the same time.
// A logic must therefore keep its state to itself (NewReduce builds one
// per partition) and be a pure function of what it consumed and the
// view: no package-level state, no shared meter, nothing of the
// scheduler's.
//
//approx:pure
type ReduceLogic interface {
	Consume(out *MapOutput)
	// Estimates returns the current per-key estimates; used by target-
	// error controllers while maps are still running. Implementations
	// for which online estimation is meaningless may return nil.
	Estimates(view EstimateView) []KeyEstimate
	// Finalize returns the partition's final outputs.
	Finalize(view EstimateView) []KeyEstimate
}

// Directive is returned by a Controller after a map completion to steer
// the rest of the job.
type Directive struct {
	DropPending bool    // drop all not-yet-launched maps
	KillRunning bool    // also kill currently running maps
	SampleRatio float64 // if > 0, input sampling ratio for future launches
	// Abort, when non-nil, fails the job with this error: the
	// controller has concluded the job cannot meet its contract (e.g.
	// a deadline SLO that is infeasible even at the cheapest ratios).
	Abort error
}

// JobView is the read-only window a Controller gets onto a running job.
type JobView struct {
	TotalMaps     int
	TotalMapSlots int
	Launched      int
	Completed     int
	Dropped       int // dropped + killed
	Running       int
	Pending       int
	Confidence    float64
	// Elapsed is the virtual time since the job started — what a
	// deadline controller budgets against. Note TotalMapSlots is the
	// job's *effective* slot count: under a multi-tenant arbiter it is
	// the job's share, not the whole cluster.
	Elapsed float64
	// Measures holds the cluster.TaskMeasure of each completed map, in
	// completion order, for cost-model fitting.
	Measures []cluster.TaskMeasure
	// Estimates returns the current cross-partition estimate snapshot.
	Estimates func() []KeyEstimate
	// Logics exposes the per-partition ReduceLogic instances so
	// controllers can extract richer planning statistics (e.g. the
	// variance components of Equation 7) via type assertion. The slice
	// is the tracker's own, indexed by partition: read it, never write.
	Logics func() []ReduceLogic
	// CostParams returns (t0, tr, tp) fitted from completed maps.
	CostParams func() (t0, tr, tp float64)
	// AvgItems is the mean M_i over completed maps (0 if none).
	AvgItems float64
}

// PlanAction is a Controller's verdict on the next map task launch.
type PlanAction int

// Plan actions.
const (
	// PlanRun launches the task with the returned sampling ratio.
	PlanRun PlanAction = iota
	// PlanDrop drops the task without executing it.
	PlanDrop
	// PlanDefer leaves the task pending and pauses launching until the
	// next scheduling pass (e.g. while waiting for a pilot wave to
	// finish). Controllers must never defer when nothing is running,
	// or the job would stall; the tracker converts such a defer into a
	// run as a safety net.
	PlanDefer
)

// Controller steers approximation while a job runs. The precise
// framework uses a nil controller: every task runs with ratio 1.
type Controller interface {
	// Name identifies the controller in logs and results.
	Name() string
	// Plan is consulted immediately before launching a map task.
	Plan(v *JobView) (sampleRatio float64, action PlanAction)
	// Completed is invoked after each map task's output has been
	// consumed by the reduces.
	Completed(v *JobView) Directive
}

// Counters aggregates what happened during a job.
type Counters struct {
	MapsTotal      int
	MapsCompleted  int
	MapsDropped    int // never launched
	MapsKilled     int // launched, then deliberately killed
	MapsFailed     int // attempts lost to faults (task faults or server death)
	MapsRetried    int // re-executions queued for failed attempts
	MapsDegraded   int // tasks degraded to statistically-bounded drops
	MapsSpeculated int // duplicate attempts launched
	// ServersBlacklisted counts servers removed from map scheduling
	// after RetryPolicy.BlacklistAfter failed attempts.
	ServersBlacklisted int
	ItemsTotal         int64
	ItemsProcessed     int64
	BytesRead          int64
	PairsShuffled      int64
	// ShuffleBytes is the modeled shuffle volume: the summed
	// MapOutput.ShuffleSize of every output delivered to a reduce.
	ShuffleBytes int64
	Waves        int
}

// Result is the outcome of a job execution.
type Result struct {
	Job      string
	Outputs  []KeyEstimate // merged across partitions, sorted by key
	Runtime  float64       // virtual seconds from submission to completion
	EnergyWh float64       // cluster energy over the job's timeline
	// Energy splits the job's energy by server state (busy slots,
	// awake-idle, S3 sleep), in joules.
	Energy   cluster.EnergyBreakdown
	Counters Counters
	// RealSecs is the compute charged by the job's meter for executing
	// map and reduce code in-process: deterministic modeled seconds
	// under the default vtime.Deterministic meter, host wall-clock
	// seconds under vtime.Wall (calibration and benchmarks).
	RealSecs float64
	// Trace is the job's full scheduling-event log in virtual-time
	// order, recorded when Job.RecordTrace is set (nil otherwise).
	Trace []Event
}

// Output returns the estimate for a key, with ok=false when absent
// (e.g. the key was missed entirely by sampling, Section 3.1's stated
// limitation).
func (r *Result) Output(key string) (KeyEstimate, bool) {
	// Outputs are sorted by key; binary search.
	lo, hi := 0, len(r.Outputs)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.Outputs[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.Outputs) && r.Outputs[lo].Key == key {
		return r.Outputs[lo], true
	}
	return KeyEstimate{}, false
}

// MaxRelErr returns the largest relative error bound across outputs —
// the paper reports "the key with the maximum predicted absolute
// error"; relative bounds are what target-error mode constrains.
func (r *Result) MaxRelErr() float64 {
	worst := 0.0
	for _, o := range r.Outputs {
		if re := o.Est.RelErr(); re > worst {
			worst = re
		}
	}
	return worst
}
