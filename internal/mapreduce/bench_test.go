package mapreduce

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/vtime"
)

// benchInput builds a reusable word-count corpus.
func benchInput(lines int) *dfs.File {
	var sb strings.Builder
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := 0; i < lines; i++ {
		sb.WriteString(words[i%len(words)])
		sb.WriteByte(' ')
		sb.WriteString(words[(i*3)%len(words)])
		sb.WriteByte('\n')
	}
	return dfs.SplitText("bench.txt", []byte(sb.String()), 8192)
}

func benchJob(input *dfs.File, combine bool) *Job {
	return &Job{
		Input: input,
		NewMapper: func() Mapper {
			return MapperFunc(func(rec Record, emit Emitter) {
				for _, w := range strings.Fields(rec.Value) {
					emit.Emit(w, 1)
				}
			})
		},
		NewReduce: func(int) ReduceLogic { return SumReduce() },
		Combine:   combine,
		Cost:      cluster.AnalyticCost{T0: 1, Tr: 1e-5, Tp: 1e-4},
	}
}

// BenchmarkJobThroughput measures end-to-end framework throughput:
// scheduling, real map execution, shuffle and reduce for a 10k-line
// word count.
func BenchmarkJobThroughput(b *testing.B) {
	input := benchInput(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cluster.DefaultConfig()
		cfg.Servers = 4
		if _, err := Run(cluster.New(cfg), benchJob(input, false)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(input.Size()))
}

// BenchmarkJobThroughputCombined measures the same job with map-side
// combining (fewer shuffled pairs).
func BenchmarkJobThroughputCombined(b *testing.B) {
	input := benchInput(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cluster.DefaultConfig()
		cfg.Servers = 4
		if _, err := Run(cluster.New(cfg), benchJob(input, true)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(input.Size()))
}

// benchEmit drives one emitter through a fixed pair stream, the same
// shape the map hot path produces.
func benchEmit(e *mapEmitter, pairs int) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for i := 0; i < pairs; i++ {
		e.Emit(words[i%len(words)], 1)
	}
}

// BenchmarkMapEmitterHinted measures the map-side emit hot path with an
// accurate hint: one backing-array allocation up front, no append
// growth during the run.
func BenchmarkMapEmitterHinted(b *testing.B) {
	const pairs = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := newMapEmitter(8, false, vtime.NewDeterministic(), emitHint{keys: 8, pairs: pairs})
		benchEmit(e, pairs)
	}
}

// BenchmarkMapEmitterUnhinted is the same workload without a size hint
// (what the attempts a pass hands the pool before its first map returns
// get, while no map of the job has completed): every partition slice
// grows by repeated append reallocation.
func BenchmarkMapEmitterUnhinted(b *testing.B) {
	const pairs = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := newMapEmitter(8, false, vtime.NewDeterministic(), emitHint{})
		benchEmit(e, pairs)
	}
}

// BenchmarkMapEmitterCombined measures the combining emitter with its
// dense id-indexed aggregate slice.
func BenchmarkMapEmitterCombined(b *testing.B) {
	const pairs = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := newMapEmitter(8, true, vtime.NewDeterministic(), emitHint{keys: 8})
		benchEmit(e, pairs)
	}
}

// balancedKeys returns one key per reduce partition, found by probing
// candidate strings through the real Partition hash, so a round-robin
// emit stream fills every partition evenly.
func balancedKeys(t *testing.T, reduces int) []string {
	t.Helper()
	keys := make([]string, reduces)
	found := 0
	for i := 0; found < reduces && i < 10000; i++ {
		k := "key-" + strconv.Itoa(i)
		p := Partition(k, reduces)
		if keys[p] == "" {
			keys[p] = k
			found++
		}
	}
	if found < reduces {
		t.Fatalf("found keys for only %d/%d partitions", found, reduces)
	}
	return keys
}

// TestMapEmitterHintedAllocs pins the allocation contract of the
// preallocated emit paths: with a hint whose pairs cover every
// partition, the whole emit stream costs exactly the up-front
// allocations, so appends never grow a partition mid-attempt. The hint
// counts keys and pairs apart, so 4096 pairs over 8 keys size the key
// table for 8 keys.
func TestMapEmitterHintedAllocs(t *testing.T) {
	const (
		reduces = 8
		pairs   = 4096
	)
	keys := balancedKeys(t, reduces)
	meter := vtime.NewDeterministic()
	emitAll := func(e *mapEmitter) {
		for i := 0; i < pairs; i++ {
			e.Emit(keys[i%reduces], 1)
		}
	}
	// Emitter struct + partition header slice + one backing array, plus
	// the interner's fixed-size state (slot table, dense key/partition
	// slices, one arena chunk), and nothing per emit.
	hinted := testing.AllocsPerRun(20, func() {
		emitAll(newMapEmitter(reduces, false, meter, emitHint{keys: reduces, pairs: pairs}))
	})
	if hinted > 12 {
		t.Errorf("hinted emit path allocates %.0f times per attempt, want <= 12 (preallocation regressed)", hinted)
	}
	unhinted := testing.AllocsPerRun(20, func() {
		emitAll(newMapEmitter(reduces, false, meter, emitHint{}))
	})
	if hinted >= unhinted {
		t.Errorf("hinted path allocates %.0f times vs %.0f unhinted; hint should eliminate append growth", hinted, unhinted)
	}
	if e := newMapEmitter(reduces, false, meter, emitHint{keys: reduces, pairs: pairs}); len(e.intern.index.slots) != 2*reduces {
		t.Errorf("key table has %d slots for %d keys and %d pairs, want %d", len(e.intern.index.slots), reduces, pairs, 2*reduces)
	}
}

// TestCombinedEmitterAllocsFlat: a combining emitter lists each
// partition's keys once, at output, so a hinted attempt allocates the
// same number of times whatever its reduce count — the emitter and its
// key table, the aggregates, and four allocations for the outputs —
// and nothing per key or per partition.
func TestCombinedEmitterAllocsFlat(t *testing.T) {
	const bound = 11
	keys := shuffleKeys(512)
	keyBytes := 0
	for _, k := range keys {
		keyBytes += len(k)
	}
	meter := vtime.NewDeterministic()
	allocs := func(reduces int) int {
		return int(testing.AllocsPerRun(20, func() {
			e := newMapEmitter(reduces, true, meter, emitHint{keys: len(keys), keyBytes: keyBytes})
			for i := 0; i < 4096; i++ {
				e.Emit(keys[i%len(keys)], 1)
			}
			e.outputs(0, 0, 0)
		}))
	}
	at4, at64 := allocs(4), allocs(64)
	t.Logf("%d allocations at 4 reduces, %d at 64", at4, at64)
	if at4 != at64 || at64 > bound {
		t.Errorf("hinted combining emitter allocates %d times at 4 reduces and %d at 64, want the same count, at most %d", at4, at64, bound)
	}
}

// BenchmarkPartition measures the shuffle partitioner.
func BenchmarkPartition(b *testing.B) {
	keys := []string{"alpha", "beta", "gamma", "delta", "a-much-longer-key-for-hashing"}
	for i := 0; i < b.N; i++ {
		_ = Partition(keys[i%len(keys)], 16)
	}
}

// shuffleKeys builds a distinct-key universe of the given size for the
// shuffle benchmarks ("word-0" ... "word-N").
func shuffleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "word-" + strconv.Itoa(i)
	}
	return keys
}

// shuffleRound runs one map attempt's worth of shuffle end to end: emit
// a fixed pair stream, materialize the per-partition MapOutputs the way
// executeMap does, and drain every partition through EachPair the way a
// reducer does. Returns the value sum as a cheap output check.
func shuffleRound(keys []string, reduces, pairs int) float64 {
	e := newMapEmitter(reduces, false, vtime.NewDeterministic(), emitHint{keys: len(keys), pairs: pairs})
	for i := 0; i < pairs; i++ {
		e.Emit(keys[i%len(keys)], float64(i))
	}
	var sum float64
	add := func(_ string, v float64) { sum += v }
	for _, out := range e.outputs(0, 0, 0) {
		out.EachPair(add)
	}
	return sum
}

// BenchmarkShuffleArena measures the shuffle: interned (keyID, value)
// runs in flat per-partition slices, strings resolved only at EachPair
// time.
func BenchmarkShuffleArena(b *testing.B) {
	keys := shuffleKeys(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shuffleRound(keys, 4, 8192)
	}
}

// arenaShuffleAllocBaseline is the recorded allocs-per-attempt of
// BenchmarkShuffleArena's workload (64 distinct keys, 4 partitions,
// 8192 pairs, no hint). Re-record it deliberately when the shuffle
// layout changes; TestShuffleArenaAllocGuard fails CI when the live
// number drifts more than 15% above it. (The live number is 11: the
// round materialises through mapEmitter.outputs, whose []*MapOutput
// the loop this was recorded with did not build.)
const arenaShuffleAllocBaseline = 10

// TestShuffleArenaAllocGuard is the allocation regression guard for the
// shuffle, run by the CI bench job.
func TestShuffleArenaAllocGuard(t *testing.T) {
	keys := shuffleKeys(64)
	allocs := testing.AllocsPerRun(10, func() {
		shuffleRound(keys, 4, 8192)
	})
	t.Logf("%.0f allocations per attempt", allocs)
	if allocs > arenaShuffleAllocBaseline*1.15 {
		t.Errorf("shuffle allocates %.0f times per attempt, more than 1.15x the recorded baseline %d",
			allocs, arenaShuffleAllocBaseline)
	}
}

// TestShuffleEquivalence holds the shuffle to a model small enough to
// read: a pair lands in partition Partition(key), a partition keeps its
// pairs in emit order, and partitions drain one after another. Every
// partition must hand a reducer exactly the model's (key, value)
// sequence, and the drained sum must match bit for bit — the same
// float additions in the same order. Combined, a partition hands over
// each of its keys once, in first-emit order, with the model's fold of
// the key's values.
func TestShuffleEquivalence(t *testing.T) {
	const reduces, pairs = 4, 8192
	keys := shuffleKeys(64)
	type kv struct {
		k string
		v float64
	}
	model := make([][]kv, reduces)
	for i := 0; i < pairs; i++ {
		k := keys[i%len(keys)]
		p := Partition(k, reduces)
		model[p] = append(model[p], kv{k, float64(i)})
	}
	var want float64
	for _, part := range model {
		for _, e := range part {
			want += e.v
		}
	}
	if got := shuffleRound(keys, reduces, pairs); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("shuffle drained sum %v, model %v", got, want)
	}
	e := newMapEmitter(reduces, false, vtime.NewDeterministic(), emitHint{})
	for i := 0; i < pairs; i++ {
		e.Emit(keys[i%len(keys)], float64(i))
	}
	for p, out := range e.outputs(0, 0, 0) {
		i := 0
		out.EachPair(func(k string, v float64) {
			//lint:ignore nofloateq the shuffle moves values, it does not compute them
			if i < len(model[p]) && (k != model[p][i].k || v != model[p][i].v) {
				t.Fatalf("partition %d pair %d is (%q, %v), model (%q, %v)", p, i, k, v, model[p][i].k, model[p][i].v)
			}
			i++
		})
		if i != len(model[p]) || out.PairLen() != i {
			t.Errorf("partition %d drained %d pairs (PairLen %d), model %d", p, i, out.PairLen(), len(model[p]))
		}
	}
	// The stream again, combined, in an order whose keys first appear
	// out of name order: the model folds each partition's values per
	// key and lists the keys as they first appear.
	type agg struct {
		k  string
		rs stats.RunningStat
	}
	combined := make([][]agg, reduces)
	at := map[string]int{}
	c := newMapEmitter(reduces, true, vtime.NewDeterministic(), emitHint{})
	for i := 0; i < pairs; i++ {
		k := keys[(i*37)%len(keys)]
		c.Emit(k, float64(i))
		p := Partition(k, reduces)
		j, ok := at[k]
		if !ok {
			j = len(combined[p])
			at[k] = j
			combined[p] = append(combined[p], agg{k: k})
		}
		combined[p][j].rs.Add(float64(i))
	}
	for p, out := range c.outputs(0, 0, 0) {
		i := 0
		out.EachCombined(func(k string, rs stats.RunningStat) {
			if i < len(combined[p]) && (k != combined[p][i].k || rs != combined[p][i].rs) {
				t.Fatalf("partition %d key %d is (%q, %+v), model (%q, %+v)", p, i, k, rs, combined[p][i].k, combined[p][i].rs)
			}
			i++
		})
		if !out.IsCombined() || i != len(combined[p]) || out.PairLen() != i {
			t.Errorf("partition %d drained %d keys (PairLen %d, combined %v), model %d", p, i, out.PairLen(), out.IsCombined(), len(combined[p]))
		}
	}
}

// BenchmarkTextReader measures raw record-reader throughput.
func BenchmarkTextReader(b *testing.B) {
	input := benchInput(20000)
	block := input.Blocks[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := TextInputFormat{}.Open(block, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		if ok, err := rr.Push(func(Record) {}); !ok || err != nil {
			b.Fatalf("Push = %v, %v", ok, err)
		}
		rr.Close()
	}
	b.SetBytes(block.Size)
}

// internStream is a Zipf-ordered emit stream over n distinct keys, the
// order a block of the access log presents its projects (400) or its
// pages (20 000) in.
func internStream(n, length int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "page" + strconv.Itoa(i)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	stream := make([]string, length)
	for i := range stream {
		stream[i] = keys[zipf.Uint64()]
	}
	return stream
}

// BenchmarkIntern measures the hit path — every key already interned —
// which is what all but the first sight of a key costs an emit.
func BenchmarkIntern(b *testing.B) {
	for _, n := range []int{400, 20000} {
		b.Run(strconv.Itoa(n)+"keys", func(b *testing.B) {
			stream := internStream(n, 1<<16)
			tab := newKeyTable(4, n, 0)
			for _, k := range stream {
				tab.Intern(k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink int32
			for i := 0; i < b.N; i++ {
				id, _ := tab.Intern(stream[i&(1<<16-1)])
				sink += id
			}
			_ = sink
		})
	}
}

// BenchmarkInternFill measures one attempt's worth of first sights:
// build a table and intern 1000 distinct keys, with the count known
// (one slot allocation, no growth) and unknown (growth from empty).
func BenchmarkInternFill(b *testing.B) {
	keys := make([]string, 1000)
	bytes := 0
	for i := range keys {
		keys[i] = "page" + strconv.Itoa(i)
		bytes += len(keys[i])
	}
	for _, c := range []struct {
		name        string
		hint, arena int
	}{{"hinted", len(keys), bytes}, {"unhinted", 0, 0}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tab := newKeyTable(4, c.hint, c.arena)
				for _, k := range keys {
					tab.Intern(k)
				}
			}
		})
	}
}
