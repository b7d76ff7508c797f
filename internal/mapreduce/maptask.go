package mapreduce

import (
	"fmt"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/sketch"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/vtime"
	"approxhadoop/internal/zerocopy"
)

// Partition returns the reduce partition for a key: hash(key) mod R,
// Hadoop's default HashPartitioner. The hash is FNV-1a 32 (hash/fnv's
// New32a values), inlined so a call allocates neither a hasher nor a
// byte copy of the key.
//
//approx:hotpath
func Partition(key string, reduces int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(reduces))
}

// mapResult is the in-memory product of executing one map task.
type mapResult struct {
	measure    cluster.TaskMeasure
	partitions []*MapOutput // one per reduce partition
	pairs      int64        // total pairs emitted, sketch folds included
	size       emitHint     // what the emitter held: keys, key bytes, pairs through the pair arenas
}

// emitHint pre-sizes one attempt's emitter from what other maps of the
// job needed (tracker.emitHint, tracker.flushLaunches). It only moves
// allocations: no result byte depends on it.
type emitHint struct {
	keys     int // distinct keys: sizes the key table and the combiner
	keyBytes int // total bytes of the distinct keys: sizes the key arena
	pairs    int // pairs through the pair arenas: sizes the raw runs
}

// mapEmitter partitions emitted pairs, optionally combining. It interns
// every emitted key once into the attempt's keyTable — which also
// memoizes the key's partition, so the FNV hash runs once per distinct
// key instead of once per emit — and then moves only (keyID, value)
// pairs: raw mode appends idPairs to flat per-partition runs; combine
// mode accumulates into one dense RunningStat slice indexed by key ID.
// A partition's keys are listed in first-emit order — ascending ID
// order, which is therefore the order they reach its reducer in.
type mapEmitter struct {
	reduces int
	combine bool
	meter   vtime.Meter
	pairs   int64 // pairs through Emit/emitAt
	folds   int64 // elements folded into sketches

	intern    *keyTable
	runs      [][]idPair          // raw: per-partition (keyID, value) runs
	combStats []stats.RunningStat // combine: dense aggregates indexed by key ID

	// sketch representation (Job.Sketch, layered over the above for
	// plain Emit calls): groups interns group keys — which also
	// memoizes each group's partition — proto is the job's empty
	// sketch, cloned (only read) per new group, and sketches is dense
	// by group ID. lastGroup/lastSketch remember the previous fold's
	// group (its interned copy) so a repeated group skips the table
	// lookup.
	proto      sketch.Sketch
	groups     *keyTable
	sketches   []sketch.Sketch
	lastGroup  string
	lastSketch sketch.Sketch
	ekey       []byte // composite-key scratch for the pairs fallback
}

// newMapEmitter builds the per-attempt emitter from hint, whose zero
// counts leave the matching state to grow: the interner is sized for
// hint.keys keys of hint.keyBytes bytes, combiner state for hint.keys
// aggregates, and raw partition runs are carved zero-length from one
// backing array for hint.pairs pairs (disjoint capacities, so
// in-capacity appends never interfere), which keeps growth
// reallocations off the emit hot path.
func newMapEmitter(reduces int, combine bool, meter vtime.Meter, hint emitHint) *mapEmitter {
	e := &mapEmitter{reduces: reduces, combine: combine, meter: meter}
	e.intern = newKeyTable(reduces, hint.keys, hint.keyBytes)
	if combine {
		if hint.keys > 0 {
			e.combStats = make([]stats.RunningStat, 0, hint.keys)
		}
	} else {
		e.runs = make([][]idPair, reduces)
		if hint.pairs > 0 {
			perPart := hint.pairs/reduces + 1
			backing := make([]idPair, reduces*perPart)
			for i := range e.runs {
				e.runs[i] = backing[i*perPart : i*perPart : (i+1)*perPart]
			}
		}
	}
	return e
}

// enableSketch switches EmitElement from the composite-pair fallback
// to folding into per-group clones of proto, an empty sketch the
// emitter only reads.
func (e *mapEmitter) enableSketch(proto sketch.Sketch) {
	e.proto = proto
	e.groups = newKeyTable(e.reduces, 64, 0)
}

// Emit implements Emitter. key may be a transient view of a reusable
// buffer (the record lifetime contract): the interner copies it on
// first sight.
//
//approx:compute
//approx:hotpath
func (e *mapEmitter) Emit(key string, value float64) { e.emitAt(key, value, -1) }

// EmitElement implements ElementEmitter. Under a sketch plan the
// element folds into the group's sketch (weight rounds to a positive
// integer count, minimum 1); otherwise it degrades to the composite
// pair group+ElementSep+element — partitioned by the group alone, so a
// group's elements always meet in one reduce partition. group and
// element may be transient buffer views: the interners copy on first
// sight and the sketches hash without retaining (TopK clones the
// candidates it keeps).
//
//approx:compute
//approx:hotpath
func (e *mapEmitter) EmitElement(group, element string, weight float64) {
	if e.proto == nil {
		e.ekey = append(e.ekey[:0], group...)
		e.ekey = append(e.ekey, ElementSep[0])
		e.ekey = append(e.ekey, element...)
		e.emitAt(zerocopy.String(e.ekey), weight, int32(Partition(group, e.reduces)))
		return
	}
	e.folds++
	if e.lastSketch == nil || group != e.lastGroup {
		id, _ := e.groups.Intern(group)
		if int(id) == len(e.sketches) {
			e.sketches = append(e.sketches, e.proto.Clone())
		}
		e.lastGroup, e.lastSketch = e.groups.Resolve(id), e.sketches[id]
	}
	n := uint64(1)
	if weight > 1 {
		n = uint64(weight + 0.5)
	}
	e.lastSketch.Fold(element, n)
}

// emitAt is Emit with the partition already decided (the composite-pair
// fallback partitions by group, not by the full key); a negative p
// hashes it from the key.
//
//approx:compute
//approx:hotpath
func (e *mapEmitter) emitAt(key string, value float64, p int32) {
	e.pairs++
	id := e.intern.InternAt(key, p)
	if e.combine {
		if int(id) == len(e.combStats) {
			e.combStats = append(e.combStats, stats.RunningStat{})
		}
		e.combStats[id].Add(value)
		return
	}
	p = e.intern.parts[id]
	e.runs[p] = append(e.runs[p], idPair{id: id, v: value})
}

// ChargeCompute implements vtime.Charger: user map kernels declare
// their inner-loop work so the meter can attribute compute time
// deterministically.
//
//approx:compute
func (e *mapEmitter) ChargeCompute(units float64) { e.meter.Charge(units) }

// outputs materialises what the attempt emitted as one MapOutput per
// reduce partition (one allocation for all of them), each pointing into
// the attempt-wide interners, aggregates and sketches.
func (e *mapEmitter) outputs(taskID int, items, sampled int64) []*MapOutput {
	parts := make([]*MapOutput, e.reduces)
	outs := make([]MapOutput, e.reduces)
	var combIDs, sketchIDs [][]int32
	if e.combine {
		combIDs = e.intern.byPartition()
	}
	if e.groups != nil {
		sketchIDs = e.groups.byPartition()
	}
	for p := range outs {
		out := &outs[p]
		out.TaskID = taskID
		out.Items = items
		out.Sampled = sampled
		out.keys = e.intern
		if e.combine {
			out.combIDs = combIDs[p] // non-nil, which marks the output combined
			out.combStats = e.combStats
		} else {
			out.run = e.runs[p]
		}
		if e.groups != nil {
			out.groups = e.groups
			out.sketchIDs = sketchIDs[p]
			out.sketches = e.sketches
		}
		parts[p] = out
	}
	return parts
}

// executeMap runs one map task attempt in-process: it opens the block
// through the job's input format (applying the sampling ratio), has the
// reader push every returned record through a fresh Mapper, and
// partitions the emitted pairs. The supplied per-attempt meter splits
// charged compute into setup, read and process components so cost
// models and the target-error controller can fit Equation 5.
//
// Records are views of the block's bytes straight from its line
// backing, and the emitter interns keys into the attempt's arena; the
// meter brackets (one OpRead per record handed over, one OpProc per Map
// call) and the emitter's float operations happen in record order, so a
// (job, seed) pair produces bit-identical results on every run
// (frozen_dataplane_test.go pins them).
//
// executeMap is the compute plane: a pure function of
// (job config, block, ratio, seed) that may run on a pool worker
// concurrently with the virtual-time scheduler. It must never touch
// tracker or engine state, the shared Job.Meter, or package-level
// variables — the approxlint `purity` analyzer enforces this for
// everything reachable from the directive below, sync.Pool included:
// pool hand-out order depends on goroutine scheduling, so whatever an
// attempt reuses it owns. The one thing attempts share is proto, the
// job's empty sketch under Job.Sketch (nil otherwise), which each group
// clones and nothing writes.
//
//approx:compute
func executeMap(job *Job, block *dfs.Block, taskID int, ratio float64, seed int64, meter vtime.Meter, hint emitHint, proto sketch.Sketch) (*mapResult, error) {
	meter.Begin(vtime.OpSetup)
	reader, err := job.Format.Open(block, ratio, seed)
	if err != nil {
		return nil, err
	}
	//lint:ignore errcheck block readers close in-memory sources; nothing to surface
	defer reader.Close()
	if ms, ok := reader.(MeterSetter); ok {
		ms.SetMeter(meter)
	}
	var mapper Mapper
	if job.NewMapperFor != nil {
		mapper = job.NewMapperFor(taskID)
	} else {
		mapper = job.NewMapper()
	}
	emitter := newMapEmitter(job.Reduces, job.Combine, meter, hint)
	if proto != nil {
		emitter.enableSketch(proto)
	}
	setup := meter.End(vtime.OpSetup, 1, 0)

	var procSecs float64
	pushed, err := reader.Push(func(rec Record) {
		meter.Begin(vtime.OpProc)
		mapper.Map(rec, emitter)
		procSecs += meter.End(vtime.OpProc, 1, 0)
	})
	if err != nil {
		return nil, err
	}
	if !pushed {
		return nil, fmt.Errorf("mapreduce: the reader of %s declined to push its records; nothing was mapped", block.ID())
	}
	rm := reader.Measure()
	return &mapResult{
		measure: cluster.TaskMeasure{
			Items:     rm.Items,
			Processed: rm.Sampled,
			Bytes:     rm.Bytes,
			ReadSecs:  rm.ReadSecs,
			ProcSecs:  procSecs,
			SetupSecs: setup,
		},
		partitions: emitter.outputs(taskID, rm.Items, rm.Sampled),
		pairs:      emitter.pairs + emitter.folds,
		size:       emitHint{keys: emitter.intern.Len(), keyBytes: emitter.intern.Bytes(), pairs: int(emitter.pairs)},
	}, nil
}
