package stream

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

// lineSource yields n records through one reused line buffer, so the
// pipeline must copy what it keeps: record i arrives at i/perWindow as
// "c<i mod clients>\t<value>", except every 50th, which has no tab and
// which the test queries' Stratify drops. After n records Run returns
// err.
type lineSource struct {
	n, perWindow, clients int
	err                   error

	yielded  int  // records handed to fn
	returned bool // Run has returned
}

func (s *lineSource) Run(fn func(t float64, line []byte) error) error {
	defer func() { s.returned = true }()
	var line []byte
	for i := 0; i < s.n; i++ {
		line = strconv.AppendInt(append(line[:0], 'c'), int64(i%s.clients), 10)
		if i%50 != 49 {
			line = strconv.AppendInt(append(line, '\t'), int64(100+i*7%1000), 10)
		}
		s.yielded++
		if err := fn(float64(i)/float64(s.perWindow), line); err != nil {
			return err
		}
	}
	return s.err
}

// withLineFuncs gives q the Stratify and Value of lineSource's lines:
// the client is the stratum, the number after the tab the value.
func withLineFuncs(q Query) Query {
	q.Stratify = func(line []byte) []byte {
		if i := bytes.IndexByte(line, '\t'); i >= 0 {
			return line[:i]
		}
		return nil
	}
	q.Value = func(line []byte) (float64, bool) {
		n, err := strconv.Atoi(string(line[bytes.IndexByte(line, '\t')+1:])) // no allocation: the compiler keeps the string on the stack
		return float64(n), err == nil
	}
	return q
}

// splitQueries cover both ways of keying a stratum, every op, the
// controller on error and on latency, and sliding windows.
func splitQueries() []Query {
	return []Query{
		withLineFuncs(Query{Name: "bucketed sum", Op: OpSum, Buckets: 16, Capacity: 8, Window: Window{Size: 1}, SLO: SLO{TargetRelErr: 0.05}}),
		withLineFuncs(Query{Name: "unbucketed count", Op: OpCount, Window: Window{Size: 1, Slide: 0.5}, SLO: SLO{MaxLatency: 0.005}}),
		withLineFuncs(Query{Name: "unbucketed mean", Op: OpMean, Capacity: 8, Window: Window{Size: 2, Slide: 1}}),
	}
}

// serialRun is the reference the two stages are held to: stage 1's
// routing and stage 2's fold of each record on the caller's goroutine,
// in the order the source yields them.
func serialRun(p *Pipeline, emit func(WindowResult) error) error {
	st, err := p.start(emit)
	if err != nil {
		return err
	}
	err = p.Source.Run(func(t float64, line []byte) error {
		key, strat, ok := st.q.route(line)
		if !ok {
			return nil
		}
		return st.ingest(t, key, line, strat)
	})
	switch {
	case errors.Is(err, errStopIngest):
		return nil
	case err != nil:
		return err
	}
	return st.drain()
}

// splitRun is one run of a pipeline over a fresh lineSource, by RunEach
// or by serialRun.
type splitRun struct {
	series []WindowResult
	err    error
	src    *lineSource
}

func runSplit(q Query, src lineSource, maxWindows, failAt int, serial bool) splitRun {
	r := splitRun{src: &src}
	p := &Pipeline{Query: q, Source: r.src, MaxWindows: maxWindows}
	emit := func(w WindowResult) error {
		if len(r.series) == failAt {
			return errEmitTest
		}
		r.series = append(r.series, w)
		return nil
	}
	if serial {
		r.err = serialRun(p, emit)
	} else {
		r.err = p.RunEach(emit)
	}
	return r
}

var (
	errSourceTest = errors.New("source failed")
	errEmitTest   = errors.New("emit failed")
)

// sameSeries compares two series byte for byte, Last flags included.
func sameSeries(t *testing.T, what string, got, want []WindowResult) {
	t.Helper()
	if !bytes.Equal(SeriesBytes(got), SeriesBytes(want)) {
		t.Errorf("%s: %d windows differ from the serial reference's %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i].Last != want[i].Last {
			t.Errorf("%s: window %d Last = %v, serial %v", what, got[i].Index, got[i].Last, want[i].Last)
		}
	}
}

// noGoroutineLeft waits briefly for the goroutine count to fall back to
// before: a producer that has sent its last batch still takes a moment
// to exit.
func noGoroutineLeft(t *testing.T, what string, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines after RunEach, %d before", what, runtime.NumGoroutine(), before)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamSplitMatchesSerial: the two stages fold every record the
// serial reference folds, in its order, for sources that end just
// short of, on and just past a batch edge.
func TestStreamSplitMatchesSerial(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, q := range splitQueries() {
		for _, n := range []int{0, 1, batchLen - 1, batchLen, batchLen + 1, 3*batchLen - 1, 3 * batchLen, 3*batchLen + 1} {
			src := lineSource{n: n, perWindow: 1000, clients: 61}
			got, want := runSplit(q, src, 0, -1, false), runSplit(q, src, 0, -1, true)
			what := q.Name + " over " + strconv.Itoa(n) + " records"
			if got.err != nil || want.err != nil {
				t.Fatalf("%s: err %v, serial %v", what, got.err, want.err)
			}
			if n > 0 && len(want.series) == 0 {
				t.Fatalf("%s: the serial reference emitted nothing", what)
			}
			sameSeries(t, what, got.series, want.series)
			if !got.src.returned || got.src.yielded != n {
				t.Errorf("%s: source yielded %d of %d, returned %v", what, got.src.yielded, n, got.src.returned)
			}
		}
	}
	noGoroutineLeft(t, "drained sources", before)
}

// TestStreamSplitMaxWindowsMidBatch: a window budget spent in the
// middle of a batch ends the series where the serial reference ends it,
// stops the source within a ring of records, and waits for it.
func TestStreamSplitMaxWindowsMidBatch(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, q := range splitQueries() {
		// Window 5 closes at record 6000, inside the second batch.
		src := lineSource{n: 20 * batchLen, perWindow: 1000, clients: 61}
		got, want := runSplit(q, src, 6, -1, false), runSplit(q, src, 6, -1, true)
		if got.err != nil || want.err != nil {
			t.Fatalf("%s: err %v, serial %v", q.Name, got.err, want.err)
		}
		if len(got.series) != 6 || !got.series[5].Last {
			t.Errorf("%s: %d windows; want 6, the last marked Last", q.Name, len(got.series))
		}
		sameSeries(t, q.Name, got.series, want.series)
		if !got.src.returned || got.src.yielded > want.src.yielded+ringDepth*batchLen+1 {
			t.Errorf("%s: source yielded %d (serial %d), returned %v; want it stopped within a ring", q.Name, got.src.yielded, want.src.yielded, got.src.returned)
		}
	}
	noGoroutineLeft(t, "window budget", before)
}

// TestStreamSplitSourceError: a source that fails after k records has
// its error returned verbatim once those k records are folded, which
// the record that closes a window makes visible.
func TestStreamSplitSourceError(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, q := range splitQueries() {
		for _, k := range []int{3001, batchLen - 1, batchLen, batchLen + 1} {
			src := lineSource{n: k, perWindow: 1000, clients: 61, err: errSourceTest}
			got, want := runSplit(q, src, 0, -1, false), runSplit(q, src, 0, -1, true)
			what := q.Name + " failing after " + strconv.Itoa(k) + " records"
			if got.err != errSourceTest || want.err != errSourceTest {
				t.Fatalf("%s: err %v, serial %v; want %v verbatim", what, got.err, want.err, errSourceTest)
			}
			if k == 3001 && len(got.series) == 0 {
				t.Errorf("%s: record 3000 closes a window, none emitted", what)
			}
			sameSeries(t, what, got.series, want.series)
		}
	}
	noGoroutineLeft(t, "failing sources", before)
}

// TestStreamSplitEmitError: a window callback's error is returned
// verbatim and stops the source within a ring of records.
func TestStreamSplitEmitError(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, q := range splitQueries() {
		src := lineSource{n: 20 * batchLen, perWindow: 1000, clients: 61}
		got, want := runSplit(q, src, 0, 3, false), runSplit(q, src, 0, 3, true)
		if got.err != errEmitTest || want.err != errEmitTest {
			t.Fatalf("%s: err %v, serial %v; want %v verbatim", q.Name, got.err, want.err, errEmitTest)
		}
		sameSeries(t, q.Name, got.series, want.series)
		if !got.src.returned || got.src.yielded > want.src.yielded+ringDepth*batchLen+1 {
			t.Errorf("%s: source yielded %d (serial %d), returned %v; want it stopped within a ring", q.Name, got.src.yielded, want.src.yielded, got.src.returned)
		}
	}
	noGoroutineLeft(t, "failing window callback", before)
}

// TestStreamSplitReusesRing: a warm run takes its batches from the ring
// an earlier run left, so a short run allocates well under one batch's
// records. The query counts, so no reservoir's source adds to what the
// run allocates; the least of several runs is read, as the runtime may
// empty the ring's pool at a collection.
func TestStreamSplitReusesRing(t *testing.T) {
	q := splitQueries()[1]
	run := func() {
		src := &lineSource{n: 2000, perWindow: 1000, clients: 61}
		if err := (&Pipeline{Query: q, Source: src}).RunEach(func(WindowResult) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	run()
	least := uint64(1 << 62)
	var before, after runtime.MemStats
	for range 8 {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(batchLen) * uint64(unsafe.Sizeof(routed{})); least > limit {
		t.Errorf("a warm run of 2000 records allocates %d bytes, want at most %d", least, limit)
	}
	t.Logf("a warm run of 2000 records allocates %d bytes", least)
}
