package mapreduce

import (
	"math"
	"testing"

	"approxhadoop/internal/stats"
)

// TestEachStatRawMatchesCombined: EachStat over raw pairs yields the
// (key, RunningStat) sequence the combiner builds for the same emits —
// the same keys in first-emit order with bit-identical aggregates.
func TestEachStatRawMatchesCombined(t *testing.T) {
	type keyStat struct {
		key string
		rs  stats.RunningStat
	}
	collect := func(out *MapOutput) []keyStat {
		var got []keyStat
		out.EachStat(func(key string, rs stats.RunningStat) { got = append(got, keyStat{key, rs}) })
		return got
	}
	type pair struct {
		k string
		v float64
	}
	rng := stats.NewRand(11)
	keys := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	var interleaved []pair
	for i := 0; i < 400; i++ {
		interleaved = append(interleaved, pair{keys[rng.Intn(len(keys))], rng.NormFloat64()*1e3 + 0.1})
	}
	for _, tc := range []struct {
		name  string
		pairs []pair
	}{
		{"empty", nil},
		{"one key", []pair{{"k", 3}, {"k", 1.5}, {"k", -2}}},
		{"interleaved", interleaved},
	} {
		emit := func(e Emitter) {
			for _, p := range tc.pairs {
				e.Emit(p.k, p.v)
			}
		}
		raw := collect(mapOutput(t, 0, 10, 10, false, nil, emit))
		comb := collect(mapOutput(t, 0, 10, 10, true, nil, emit))
		if len(raw) != len(comb) {
			t.Fatalf("%s: raw yields %d keys, combined %d", tc.name, len(raw), len(comb))
		}
		for i := range raw {
			if raw[i] != comb[i] {
				t.Errorf("%s: entry %d: raw %+v, combined %+v", tc.name, i, raw[i], comb[i])
			}
		}
	}
}

// TestTallyOrderFree: every Tally read-out, and the sketch reducers'
// coverage and expansion factor computed from them, is bit-identical
// under every order the same clusters are consumed in.
func TestTallyOrderFree(t *testing.T) {
	clusters := [][2]int64{{1000, 1000}, {987, 101}, {1 << 40, 3}, {5, 0}, {77, 77}, {123456789, 9876}}
	outs := make([]*MapOutput, len(clusters))
	for i, c := range clusters {
		outs[i] = mapOutput(t, i, c[0], c[1], true, nil, func(Emitter) {})
	}
	views := []EstimateView{
		{TotalMaps: len(outs), Confidence: 0.95},
		{TotalMaps: 4 * len(outs), Dropped: 3, Confidence: 0.95},
	}
	type readout struct {
		clusters      int
		units, sample int64
		exact         [2]bool
		cov, scale    [2]uint64
	}
	read := func(order []int) readout {
		var tl Tally
		for _, i := range order {
			tl.Add(outs[i])
		}
		r := readout{clusters: tl.Clusters(), units: tl.Units(), sample: tl.SampledUnits()}
		for v, view := range views {
			r.exact[v] = tl.Exact(view)
			r.cov[v] = math.Float64bits(coverage(&tl, view))
			r.scale[v] = math.Float64bits(expansion(&tl, view))
		}
		return r
	}
	order := make([]int, len(outs))
	for i := range order {
		order[i] = i
	}
	want := read(order)
	if want.clusters != len(outs) || want.exact[0] || want.exact[1] {
		t.Fatalf("tally of sampled clusters: %+v", want)
	}
	perms := 0
	// Heap's algorithm visits every permutation of order.
	var permute func(k int)
	permute = func(k int) {
		if k == 1 {
			perms++
			if got := read(order); got != want {
				t.Fatalf("order %v: %+v, want %+v", order, got, want)
			}
			return
		}
		for i := 0; i < k; i++ {
			permute(k - 1)
			if k%2 == 0 {
				order[i], order[k-1] = order[k-1], order[i]
			} else {
				order[0], order[k-1] = order[k-1], order[0]
			}
		}
	}
	permute(len(order))
	if perms != 720 {
		t.Fatalf("visited %d orders, want 720", perms)
	}
}
