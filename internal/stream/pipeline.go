// Pipeline execution, in two stages on two goroutines. Stage 1, a
// goroutine of the run's own, drives the Source: it stratifies each
// record, hashes it to its stratum key and copies it into a batch.
// Stage 2, the goroutine that called Run, takes the batches in the
// order they were filled and folds each record into the strata of every
// window that contains it — and, when its timestamp moves the
// watermark, closes the windows that have ended, feeds the controller
// and opens the next ones under the controller's plan. Nothing stage 1
// does reads run state, so the records reach the folds in the order the
// source produced them, as if one goroutine did both. A record's value
// is parsed from its copied line, and only when a reservoir admits it.
package stream

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
)

// errStopIngest ends the folds cleanly once MaxWindows have closed.
var errStopIngest = errors.New("stream: window budget reached")

// Pipeline runs one Query over one Source. When the query's SLO sets a
// target or a latency budget, each run builds a controller that retunes
// every window's PlanSpec from the previous window's realized error and
// modeled latency; otherwise the query's fixed plan (Capacity, KeepFrac
// 1) runs forever.
type Pipeline struct {
	Query  Query
	Source Source

	// MaxWindows stops the stream after this many closed windows
	// (0 = run until the source drains).
	MaxWindows int
}

// stratumState is the per-(window, stratum) fold state.
type stratumState struct {
	name     string
	count    int64 // records observed (M_h)
	shed     bool
	res      *reservoir // nil when shed or OpCount
	admitted int64      // reservoir admissions (value parses)
}

// window is one open window: the plan it was opened under and its
// strata, in a table indexed by bucket when the query buckets and keyed
// by stratum hash otherwise. Either is made by the window's first
// record, so a window a rate trough skips costs its plan and no more.
type window struct {
	index  int64
	plan   PlanSpec
	dense  []*stratumState
	sparse map[uint64]*stratumState
}

// find returns the window's state for a stratum key, nil before the
// stratum's first record.
func (w *window) find(key uint64) *stratumState {
	if w.dense != nil {
		return w.dense[key]
	}
	return w.sparse[key]
}

// runState is the mutable state of one Run.
type runState struct {
	q    Query
	ctrl *controller // nil: the fixed plan

	plan PlanSpec // applied to windows opened from now on

	// open holds windows nextClose..maxOpened in index order: window k
	// is open[k-nextClose].
	open       []*window
	maxOpened  int64 // highest window index opened
	nextClose  int64 // next window index to close
	closed     int
	maxWindows int

	names   []string        // bucket labels, each made on first use
	free    []*reservoir    // reservoirs of closed windows, for reuse
	scratch []*stratumState // closeWindow's sort buffer

	emit func(WindowResult) error
}

// Run executes the pipeline until the source drains or MaxWindows
// close, returning the full window series.
func (p *Pipeline) Run() ([]WindowResult, error) {
	var series []WindowResult
	err := p.RunEach(func(r WindowResult) error {
		series = append(series, r)
		return nil
	})
	return series, err
}

// RunEach executes the pipeline, invoking fn once per closed window in
// index order. fn errors abort the stream and are returned verbatim, as
// are the source's, once the records it produced before failing are
// folded. The source runs on a goroutine of its own, at most one ring
// of records ahead of fn; on every way out RunEach stops it and waits
// for its Run to return.
func (p *Pipeline) RunEach(fn func(WindowResult) error) error {
	st, err := p.start(fn)
	if err != nil {
		return err
	}
	r := startRing(p.Source, st.q)
	defer r.close()
	for {
		b := r.take()
		if err := st.ingestBatch(b); err != nil {
			if errors.Is(err, errStopIngest) {
				return nil
			}
			return err
		}
		if b.last {
			if b.err != nil {
				return b.err
			}
			return st.drain()
		}
	}
}

// drain closes every open window as partial (cut by stream end rather
// than the watermark) once the source has run dry.
func (st *runState) drain() error {
	for _, w := range st.open {
		if st.maxWindows > 0 && st.closed >= st.maxWindows {
			break
		}
		if err := st.closeWindow(w, true); err != nil {
			return err
		}
	}
	return nil
}

// start validates the pipeline and builds the state of one run, no
// window open yet.
func (p *Pipeline) start(emit func(WindowResult) error) (*runState, error) {
	q, err := p.Query.normalized()
	if err != nil {
		return nil, err
	}
	if p.Source == nil {
		return nil, errors.New("stream: pipeline needs a Source")
	}
	st := &runState{
		q:          q,
		plan:       PlanSpec{Capacity: q.Capacity, KeepFrac: 1},
		maxOpened:  -1,
		maxWindows: p.MaxWindows,
		emit:       emit,
	}
	if q.SLO.TargetRelErr > 0 || q.SLO.MaxLatency > 0 {
		st.ctrl = &controller{slo: q.SLO, size: q.Window.Size}
	}
	return st, nil
}

// ingestBatch folds a batch's records in the order stage 1 routed them,
// passing over the ones Stratify dropped. It reads the batch's slices
// once: a record's fold then touches no cache line stage 1 is writing.
func (st *runState) ingestBatch(b *batch) error {
	var lo int32
	buf := b.bytes
	for _, r := range b.recs {
		if r.lineEnd == dropped {
			continue
		}
		if err := st.ingest(r.t, r.key, buf[lo:r.lineEnd], buf[r.lineEnd:r.stratEnd]); err != nil {
			return err
		}
		lo = r.stratEnd
	}
	return nil
}

// ingest folds one routed record: advance the watermark when the record
// opens a window, then for every window that contains it bump the
// stratum's count, offer the record to the reservoir and parse its
// value only on admission. strat is the stratum's label, read only when
// the query has no buckets. Folds within a stratum happen in arrival
// order, which is all a reservoir's draws depend on. This is the
// per-record hot loop of stage 2.
//
//approx:hotpath
func (st *runState) ingest(t float64, key uint64, line, strat []byte) error {
	kHi := int64(math.Floor(t / st.q.Window.Slide))
	if kHi > st.maxOpened {
		if err := st.advance(t, kHi); err != nil {
			return err
		}
	}
	// Time does not run backwards, so the windows before nextClose —
	// the negative indexes of a stream's first Size seconds among them
	// — are ones the record is no longer or never part of.
	kLo := int64(math.Floor((t-st.q.Window.Size)/st.q.Window.Slide)) + 1
	if kLo < st.nextClose {
		kLo = st.nextClose
	}
	for k := kLo; k <= kHi; k++ {
		w := st.open[k-st.nextClose]
		s := w.find(key)
		if s == nil {
			s = st.newStratum(w, key, strat)
		}
		s.count++
		if s.res == nil {
			continue
		}
		slot := s.res.admit()
		if slot < 0 {
			continue
		}
		v, ok := st.q.Value(line)
		if !ok {
			v = 0
		}
		s.res.vals[slot] = v
		s.admitted++
	}
	return nil
}

// newStratum materializes fold state for a stratum first seen in window
// w, applying the window's plan: the shedding coin and the reservoir
// seed are pure functions of (seed, window, stratum), so the outcome is
// identical no matter when the stratum shows up. Everything the fold
// allocates, it allocates here — per stratum, not per record.
func (st *runState) newStratum(w *window, key uint64, strat []byte) *stratumState {
	s := &stratumState{}
	if st.q.Buckets > 0 {
		if w.dense == nil {
			w.dense = make([]*stratumState, st.q.Buckets)
		}
		w.dense[key] = s
		if st.names == nil {
			st.names = make([]string, st.q.Buckets)
		}
		if st.names[key] == "" {
			st.names[key] = "b" + strconv.FormatUint(key, 10)
		}
		s.name = st.names[key]
	} else {
		if w.sparse == nil {
			w.sparse = make(map[uint64]*stratumState)
		}
		w.sparse[key] = s
		s.name = string(strat)
	}
	if w.plan.KeepFrac < 1 && keepCoin(st.q.Seed, w.index, key) >= w.plan.KeepFrac {
		s.shed = true
		return s
	}
	if st.q.Op != OpCount {
		seed := stratumSeed(st.q.Seed, w.index, key)
		if n := len(st.free); n > 0 {
			s.res, st.free = st.free[n-1], st.free[:n-1]
			s.res.reset(w.plan.Capacity, seed)
		} else {
			s.res = newReservoir(w.plan.Capacity, seed)
		}
	}
	return s
}

// advance moves the watermark to kHi: closes every window whose end
// time has passed and opens the new windows under the controller's
// current plan.
func (st *runState) advance(t float64, kHi int64) error {
	closeThrough := int64(math.Floor((t - st.q.Window.Size) / st.q.Window.Slide))
	if closeThrough > st.maxOpened {
		// Windows the stream skipped entirely (a rate trough longer
		// than a window) still emit, as empty rows; open them first so
		// the series stays gap-free.
		st.openThrough(closeThrough)
	}
	if n := int(closeThrough - st.nextClose + 1); n > 0 {
		for _, w := range st.open[:n] {
			if err := st.closeWindow(w, false); err != nil {
				return err
			}
			if st.maxWindows > 0 && st.closed >= st.maxWindows {
				return errStopIngest
			}
		}
		rest := copy(st.open, st.open[n:])
		clear(st.open[rest:])
		st.open = st.open[:rest]
		st.nextClose = closeThrough + 1
	}
	st.openThrough(kHi)
	return nil
}

// openThrough opens every window up to and including kHi under the
// current plan. The snapshot lives on the window, so a plan change
// mid-stream only ever affects windows opened after it.
func (st *runState) openThrough(kHi int64) {
	for k := st.maxOpened + 1; k <= kHi; k++ {
		st.open = append(st.open, &window{index: k, plan: st.plan})
		st.maxOpened = k
	}
}

// closeWindow sorts the window's strata into a canonical order,
// estimates, emits, feeds the controller, and hands the window's
// reservoirs — value buffer and seeded source with them — to the
// windows still to open.
func (st *runState) closeWindow(w *window, partial bool) error {
	strata := st.scratch[:0]
	for _, s := range w.dense {
		if s != nil {
			strata = append(strata, s)
		}
	}
	for _, s := range w.sparse {
		strata = append(strata, s)
	}
	st.scratch = strata
	slices.SortFunc(strata, func(a, b *stratumState) int { return strings.Compare(a.name, b.name) })

	res := WindowResult{
		Index:   w.index,
		Start:   float64(w.index) * st.q.Window.Slide,
		End:     float64(w.index)*st.q.Window.Slide + st.q.Window.Size,
		Strata:  len(strata),
		Plan:    w.plan,
		Partial: partial,
		// A drain's last window is the highest opened; a window budget's
		// is the one that spends it.
		Last: partial && w.index == st.maxOpened || st.closed+1 == st.maxWindows,
	}
	var parses int64
	for _, s := range strata {
		res.Records += s.count
		if s.shed {
			continue
		}
		res.Processed++
		res.Folded += s.count
		if st.q.Op == OpCount {
			res.Sampled += s.count
		} else {
			// Sampled is the held sample size (what the variance sees);
			// admissions — which also count evicted values — are what
			// parsing work scales with.
			res.Sampled += int64(len(s.res.vals))
			parses += s.admitted
		}
	}
	res.Degraded = w.plan.KeepFrac < 1
	res.Latency = windowLatency(res.Records, res.Folded, parses, res.Processed)
	res.Est, res.Exact = estimateWindow(st.q.Op, strata, st.q.SLO.Confidence)
	for _, s := range strata {
		if s.res != nil {
			st.free = append(st.free, s.res)
		}
	}

	if err := st.emit(res); err != nil {
		return err
	}
	st.closed++
	if st.ctrl != nil && !partial {
		st.plan = st.ctrl.observe(res, st.plan)
	}
	return nil
}
