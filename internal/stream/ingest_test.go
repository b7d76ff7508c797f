package stream

import (
	"fmt"
	"testing"
)

// ingestFeed drives a run's ingest directly with a synthetic stream:
// record i belongs to client i mod 997 and arrives at i/perWindow, so a
// unit window holds perWindow records.
type ingestFeed struct {
	st        *runState
	lines     [][]byte
	perWindow int
	next      int
}

func newIngestFeed(t *testing.T, perWindow int, q Query) *ingestFeed {
	t.Helper()
	q = withLineFuncs(q)
	q.Window = Window{Size: 1}
	q.SLO = SLO{TargetRelErr: 0.05}
	p := &Pipeline{Query: q, Source: sourceFunc(nil)}
	st, err := p.start(func(WindowResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	f := &ingestFeed{st: st, perWindow: perWindow}
	for i := 0; i < 997; i++ {
		f.lines = append(f.lines, []byte(fmt.Sprintf("c%d\t%d", i, 100+i*7%1000)))
	}
	return f
}

type sourceFunc func(fn func(t float64, line []byte) error) error

func (s sourceFunc) Run(fn func(t float64, line []byte) error) error { return s(fn) }

// feed routes and folds the next n records, stage 1's work and stage
// 2's on the caller's goroutine.
func (f *ingestFeed) feed(t *testing.T, n int) {
	for ; n > 0; n-- {
		line := f.lines[f.next%len(f.lines)]
		key, strat, _ := f.st.q.route(line)
		if err := f.st.ingest(float64(f.next)/float64(f.perWindow), key, line, strat); err != nil {
			t.Fatal(err)
		}
		f.next++
	}
}

// runEachAllocsPerWindow is what a window of a whole RunEach allocates,
// both stages and the ring between them: the allocations of a run of
// twelve windows less those of a run of four, over the eight windows
// between, once a first run has left a ring to reuse.
func runEachAllocsPerWindow(t *testing.T, perWindow int, q Query) float64 {
	t.Helper()
	q = withLineFuncs(q)
	q.Window = Window{Size: 1}
	q.SLO = SLO{TargetRelErr: 0.05}
	run := func(windows int) float64 {
		src := &lineSource{n: windows * perWindow, perWindow: perWindow, clients: 997}
		p := &Pipeline{Query: q, Source: src}
		return testing.AllocsPerRun(5, func() {
			if err := p.RunEach(func(WindowResult) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(4)
	return (run(12) - run(4)) / 8
}

// TestStreamIngestAllocs is the fold's allocation contract, on a run
// warm enough that closed windows have left their reservoirs behind:
// a record allocates nothing, and a window allocates for its strata —
// the same whether it holds two thousand records or forty thousand, and
// the same through a whole RunEach, whose stages pass records in the
// batches of a ring that outlives the run.
func TestStreamIngestAllocs(t *testing.T) {
	const strata = 16
	perWindowAllocs := func(perWindow int, q Query) float64 {
		f := newIngestFeed(t, perWindow, q)
		f.feed(t, 4*perWindow+perWindow/2) // four windows closed, every stratum of the fifth seen and past capacity
		if got := testing.AllocsPerRun(20, func() { f.feed(t, perWindow/100) }); got != 0 {
			t.Errorf("%d records inside a window: %v allocations, want 0", perWindow/100, got)
		}
		f.feed(t, 5*perWindow-f.next) // to the window's edge
		return testing.AllocsPerRun(10, func() { f.feed(t, perWindow) })
	}
	for _, q := range []Query{
		{Name: "bucketed", Op: OpSum, Buckets: strata, Capacity: 8},
		{Name: "natural", Op: OpMean, Capacity: 8},
		{Name: "count", Op: OpCount, Buckets: strata},
	} {
		n := strata
		if q.Buckets == 0 {
			n = 997
		}
		small, large := perWindowAllocs(2000, q), perWindowAllocs(40000, q)
		// Per stratum the fold state and, unbucketed, the label; per
		// window the window itself, its result's cluster list and its
		// table, which a map grows in a logarithm of steps.
		whole := runEachAllocsPerWindow(t, 2000, q)
		if limit := float64(2*n + 48); small > limit || large > limit || whole > limit {
			t.Errorf("%s: %v and %v allocations per window of 2000 and 40000 records over %d strata, %v through RunEach, want at most %v", q.Name, small, large, n, whole, limit)
		}
		t.Logf("%s: %v allocations per window of 2000 records, %v per window of 40000, %v through RunEach", q.Name, small, large, whole)
	}
}
