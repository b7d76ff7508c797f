package mapreduce

import (
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
	emitted    int64        // pairs that went through the pair arenas
	keys       emitHint     // distinct keys interned and their bytes
}

// emitHint pre-sizes one attempt's emitter from what completed maps of
// the job needed (tracker.emitHint). It only moves allocations: no
// result byte depends on it.
type emitHint struct {
	n        int // distinct keys expected under Combine, pairs otherwise
	keyBytes int // total bytes of the distinct keys
}

// mapEmitter partitions emitted pairs, optionally combining.
//
// Two representations exist. The default arena representation interns
// every emitted key once into the attempt's keyTable — which also
// memoizes the key's partition, so the FNV hash runs once per distinct
// key instead of once per emit — and then moves only (keyID, value)
// pairs: raw mode appends idPairs to flat per-partition runs; combine
// mode accumulates into one dense RunningStat slice indexed by key ID.
// The legacy representation (Job.LegacyDataPlane) keeps the original
// string-keyed slices/maps so equivalence tests can diff the two paths.
type mapEmitter struct {
	reduces int
	combine bool
	meter   vtime.Meter
	pairs   int64 // pairs through Emit/emitAt
	folds   int64 // elements folded into sketches

	// arena representation (default)
	intern    *keyTable
	runs      [][]idPair          // raw: per-partition (keyID, value) runs
	combIDs   [][]int32           // combine: per-partition key IDs in first-emit order
	combStats []stats.RunningStat // combine: dense aggregates indexed by key ID

	// legacy representation (Job.LegacyDataPlane)
	raw  [][]KV
	comb []map[string]stats.RunningStat

	// sketch representation (Job.Sketch, layered over either of the
	// above for plain Emit calls): groups interns group keys — which
	// also memoizes each group's partition — proto is the empty sketch
	// cloned per new group, sketches is dense by group ID, and
	// sketchIDs lists each partition's group IDs in first-emit order.
	// lastGroup/lastSketch remember the previous fold's group (its
	// interned copy) so a repeated group skips the table lookup.
	plan       *SketchPlan
	proto      sketch.Sketch
	groups     *keyTable
	sketches   []sketch.Sketch
	sketchIDs  [][]int32
	lastGroup  string
	lastSketch sketch.Sketch
	ekey       []byte // composite-key scratch for the pairs fallback
}

// newMapEmitter builds the per-attempt emitter. hint.n, when > 0, is
// the attempt's expected pair count — or, when combining, its expected
// distinct keys, which is all a combiner holds: partition runs are
// carved zero-length from one preallocated backing array (disjoint
// capacities, so in-capacity appends never interfere), the interner is
// pre-sized, and combiner state is pre-sized, which keeps growth
// reallocations off the emit hot path.
func newMapEmitter(reduces int, combine, legacy bool, meter vtime.Meter, hint emitHint) *mapEmitter {
	e := &mapEmitter{reduces: reduces, combine: combine, meter: meter}
	perPart := 0
	if hint.n > 0 {
		perPart = hint.n/reduces + 1
	}
	if legacy {
		if combine {
			e.comb = make([]map[string]stats.RunningStat, reduces)
			for i := range e.comb {
				e.comb[i] = make(map[string]stats.RunningStat, perPart)
			}
		} else {
			e.raw = make([][]KV, reduces)
			if perPart > 0 {
				backing := make([]KV, reduces*perPart)
				for i := range e.raw {
					e.raw[i] = backing[i*perPart : i*perPart : (i+1)*perPart]
				}
			}
		}
		return e
	}
	e.intern = newKeyTable(reduces, hint.n, hint.keyBytes)
	if combine {
		e.combIDs = make([][]int32, reduces)
		if hint.n > 0 {
			e.combStats = make([]stats.RunningStat, 0, hint.n)
		}
	} else {
		e.runs = make([][]idPair, reduces)
		if perPart > 0 {
			backing := make([]idPair, reduces*perPart)
			for i := range e.runs {
				e.runs[i] = backing[i*perPart : i*perPart : (i+1)*perPart]
			}
		}
	}
	return e
}

// enableSketch switches EmitElement from the composite-pair fallback
// to folding into per-group sketches.
func (e *mapEmitter) enableSketch(plan *SketchPlan) error {
	proto, err := plan.newSketch()
	if err != nil {
		return err
	}
	e.plan = plan
	e.proto = proto
	e.groups = newKeyTable(e.reduces, 64, 0)
	e.sketchIDs = make([][]int32, e.reduces)
	return nil
}

// Emit implements Emitter. key may be a transient view of a reusable
// buffer (the push-mode record contract): the interner copies it on
// first sight, and the legacy path only runs with pull-mode readers
// whose records are durable.
//
//approx:compute
//approx:hotpath
func (e *mapEmitter) Emit(key string, value float64) {
	e.pairs++
	if e.intern != nil {
		id, p := e.intern.Intern(key)
		if e.combine {
			if int(id) == len(e.combStats) {
				e.combStats = append(e.combStats, stats.RunningStat{})
				e.combIDs[p] = append(e.combIDs[p], id)
			}
			e.combStats[id].Add(value)
			return
		}
		e.runs[p] = append(e.runs[p], idPair{id: id, v: value})
		return
	}
	p := Partition(key, e.reduces)
	if e.combine {
		rs := e.comb[p][key]
		rs.Add(value)
		e.comb[p][key] = rs
		return
	}
	e.raw[p] = append(e.raw[p], KV{Key: key, Value: value})
}

// EmitElement implements ElementEmitter. Under a sketch plan the
// element folds into the group's sketch (weight rounds to a positive
// integer count, minimum 1); otherwise it degrades to the composite
// pair group+ElementSep+element — partitioned by the group alone, so a
// group's elements always meet in one reduce partition in both
// representations. group and element may be transient buffer views:
// the interners copy on first sight, the sketches hash without
// retaining (TopK clones the candidates it keeps), and the legacy path
// only runs with pull-mode readers whose records are durable.
//
//approx:compute
//approx:hotpath
func (e *mapEmitter) EmitElement(group, element string, weight float64) {
	if e.plan == nil {
		p := int32(Partition(group, e.reduces))
		if e.intern == nil {
			e.emitAt(group+ElementSep+element, weight, p)
			return
		}
		e.ekey = append(e.ekey[:0], group...)
		e.ekey = append(e.ekey, ElementSep[0])
		e.ekey = append(e.ekey, element...)
		e.emitAt(zerocopy.String(e.ekey), weight, p)
		return
	}
	e.folds++
	if e.lastSketch == nil || group != e.lastGroup {
		id, p := e.groups.Intern(group)
		if int(id) == len(e.sketches) {
			e.sketches = append(e.sketches, e.proto.Clone())
			e.sketchIDs[p] = append(e.sketchIDs[p], id)
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
// fallback partitions by group, not by the full key).
//
//approx:compute
//approx:hotpath
func (e *mapEmitter) emitAt(key string, value float64, p int32) {
	e.pairs++
	if e.intern != nil {
		id := e.intern.InternAt(key, p)
		if e.combine {
			if int(id) == len(e.combStats) {
				e.combStats = append(e.combStats, stats.RunningStat{})
				e.combIDs[p] = append(e.combIDs[p], id)
			}
			e.combStats[id].Add(value)
			return
		}
		e.runs[p] = append(e.runs[p], idPair{id: id, v: value})
		return
	}
	if e.combine {
		rs := e.comb[p][key]
		rs.Add(value)
		e.comb[p][key] = rs
		return
	}
	e.raw[p] = append(e.raw[p], KV{Key: key, Value: value})
}

// ChargeCompute implements vtime.Charger: user map kernels declare
// their inner-loop work so the meter can attribute compute time
// deterministically.
//
//approx:compute
func (e *mapEmitter) ChargeCompute(units float64) { e.meter.Charge(units) }

// executeMap runs one map task attempt in-process: it opens the block
// through the job's input format (applying the sampling ratio), feeds
// every returned record to a fresh Mapper, and partitions the emitted
// pairs. The supplied per-attempt meter splits charged compute into
// setup, read and process components so cost models and the
// target-error controller can fit Equation 5.
//
// By default records flow through the zero-allocation data plane: if
// the reader supports push mode (RecordPusher), records are yielded as
// views of reusable buffers straight from the block backing, and the
// emitter interns keys into the attempt's arena. The push loop brackets
// each record with the exact same meter Begin/End sequence as the pull
// loop, and the emitter performs the same float operations in the same
// order, so a (job, seed) pair produces bit-identical results on either
// path (Job.LegacyDataPlane forces the old one; the equivalence tests
// diff them).
//
// executeMap is the compute plane: a pure function of
// (job config, block, ratio, seed) that may run on a pool worker
// concurrently with the virtual-time scheduler. It must never touch
// tracker or engine state, the shared Job.Meter, or package-level
// variables — the approxlint `sharedstate` analyzer enforces this for
// everything reachable from the directive below. Per-attempt buffer
// reuse goes through an attempt-owned BufList, never a sync.Pool,
// which the analyzer also rejects here: pool hand-out order depends on
// goroutine scheduling.
//
//approx:compute
func executeMap(job *Job, block *dfs.Block, taskID int, ratio float64, seed int64, meter vtime.Meter, hint emitHint) (*mapResult, error) {
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
	var bufs *BufList
	if !job.LegacyDataPlane {
		if bl, ok := reader.(BufferLender); ok {
			bufs = &BufList{}
			bl.SetBuffers(bufs)
		}
	}
	var mapper Mapper
	if job.NewMapperFor != nil {
		mapper = job.NewMapperFor(taskID)
	} else {
		mapper = job.NewMapper()
	}
	emitter := newMapEmitter(job.Reduces, job.Combine, job.LegacyDataPlane, meter, hint)
	if job.Sketch != nil {
		if err := emitter.enableSketch(job.Sketch); err != nil {
			return nil, err
		}
	}
	setup := meter.End(vtime.OpSetup, 1, 0)

	var procSecs float64
	mapOne := func(rec Record) {
		meter.Begin(vtime.OpProc)
		mapper.Map(rec, emitter)
		procSecs += meter.End(vtime.OpProc, 1, 0)
	}
	pushed := false
	if !job.LegacyDataPlane {
		if p, ok := reader.(RecordPusher); ok {
			pushed, err = p.Push(mapOne)
			if err != nil {
				return nil, err
			}
		}
	}
	if !pushed {
		for {
			rec, ok, err := reader.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			mapOne(rec)
		}
	}
	rm := reader.Measure()
	res := &mapResult{
		measure: cluster.TaskMeasure{
			Items:     rm.Items,
			Processed: rm.Sampled,
			Bytes:     rm.Bytes,
			ReadSecs:  rm.ReadSecs,
			ProcSecs:  procSecs,
			SetupSecs: setup,
		},
		pairs:   emitter.pairs + emitter.folds,
		emitted: emitter.pairs,
	}
	if emitter.intern != nil {
		res.keys = emitHint{n: emitter.intern.Len(), keyBytes: emitter.intern.Bytes()}
	}
	res.partitions = make([]*MapOutput, job.Reduces)
	outs := make([]MapOutput, job.Reduces) // one allocation for all partitions
	for p := 0; p < job.Reduces; p++ {
		out := &outs[p]
		out.TaskID = taskID
		out.Items = rm.Items
		out.Sampled = rm.Sampled
		if emitter.intern != nil {
			out.keys = emitter.intern
			if job.Combine {
				ids := emitter.combIDs[p]
				if ids == nil {
					ids = []int32{} // non-nil marks the output combined
				}
				out.combIDs = ids
				out.combStats = emitter.combStats
			} else {
				out.run = emitter.runs[p]
			}
		} else if job.Combine {
			out.Combined = emitter.comb[p]
		} else {
			out.Pairs = emitter.raw[p]
		}
		if emitter.groups != nil {
			out.groups = emitter.groups
			out.sketchIDs = emitter.sketchIDs[p]
			out.sketches = emitter.sketches
		}
		res.partitions[p] = out
	}
	return res, nil
}
