package stream

import (
	"bytes"
	"fmt"
	"strconv"
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
	q.Stratify = func(line []byte) []byte { return line[:bytes.IndexByte(line, '\t')] }
	q.Value = func(line []byte) (float64, bool) {
		n, err := strconv.Atoi(string(line[bytes.IndexByte(line, '\t')+1:])) // no allocation: the compiler keeps the string on the stack
		return float64(n), err == nil
	}
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

func (f *ingestFeed) feed(t *testing.T, n int) {
	for ; n > 0; n-- {
		if err := f.st.ingest(float64(f.next)/float64(f.perWindow), f.lines[f.next%len(f.lines)]); err != nil {
			t.Fatal(err)
		}
		f.next++
	}
}

// TestStreamIngestAllocs is the fold's allocation contract, on a run
// warm enough that closed windows have left their reservoirs behind:
// a record allocates nothing, and a window allocates for its strata —
// the same whether it holds two thousand records or forty thousand.
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
		if limit := float64(2*n + 48); small > limit || large > limit {
			t.Errorf("%s: %v and %v allocations per window of 2000 and 40000 records over %d strata, want at most %v", q.Name, small, large, n, limit)
		}
		t.Logf("%s: %v allocations per window of 2000 records, %v per window of 40000", q.Name, small, large)
	}
}
