package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/vtime"
)

// span is one traced interval. A plain span's busy time is its
// duration. An aggregated span stands for many short brackets of one
// kind inside its parent (one per record would cost more than the work
// traced): start and end are the first and last bracket, BusyNS is the
// time actually spent inside brackets, Count the units they reported.
// A span's self time is BusyNS minus its children's BusyNS.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0 = root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	BusyNS  int64  `json:"busy_ns"`
	Count   int64  `json:"count"`
	Calls   int64  `json:"calls"` // brackets aggregated (1 for a plain span)
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// newID reserves a span id, so children can name a parent that is
// recorded only when it ends.
func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span.
func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
}

// interval records a plain span [start, end) under parent.
func (r *recorder) interval(id, parent int64, name string, start, end time.Time, count int64) {
	s, e := r.since(start), r.since(end)
	r.add(span{ID: id, Parent: parent, Name: name, StartNS: s, EndNS: e, BusyNS: e - s, Count: count, Calls: 1})
}

// bracketSum accumulates the brackets of one aggregated span.
type bracketSum struct {
	first, last time.Time
	busy        time.Duration
	count       int64
	calls       int64
	open        time.Time
}

func (b *bracketSum) begin() { b.open = time.Now() }

func (b *bracketSum) end(units int64) { b.endAt(time.Now(), units) }

// beginAt and endAt take the clock reading from the caller, so adjacent
// brackets can share one.
func (b *bracketSum) beginAt(t time.Time) { b.open = t }

func (b *bracketSum) endAt(now time.Time, units int64) {
	if b.calls == 0 {
		b.first = b.open
	}
	b.last = now
	b.busy += now.Sub(b.open)
	b.count += units
	b.calls++
}

// emit records the aggregate as a child of parent (nothing when no
// bracket closed).
func (b *bracketSum) emit(r *recorder, parent int64, name string) {
	if b.calls == 0 {
		return
	}
	r.add(span{ID: r.newID(), Parent: parent, Name: name,
		StartNS: r.since(b.first), EndNS: r.since(b.last), BusyNS: int64(b.busy), Count: b.count, Calls: b.calls})
}

// Span names of the batch plane, indexed by vtime.Op.
var meterSpanNames = [...]string{
	vtime.OpSetup:  "mapreduce.setup",
	vtime.OpRead:   "approx.read",
	vtime.OpProc:   "mapreduce.map",
	vtime.OpReduce: "mapreduce.reduce",
}

// jobTrace is the per-job accumulator the span meter and the controller
// wrapper write into. Traced jobs run with Workers: 1, so every bracket
// is opened and closed on the one goroutine driving the job.
type jobTrace struct {
	ops       [len(meterSpanNames)]bracketSum
	plan      bracketSum
	completed bracketSum
}

// spanMeter implements vtime.Meter and vtime.Forker. It charges exactly
// what the wrapped Deterministic meter charges — so schedules and
// output bytes are those of an untraced run — and adds wall time and
// unit counts per op class to the job's accumulator.
//
// Inside a map attempt the brackets are back to back (setup, then read
// and map alternating per record), so the clock is read once per
// bracket: an End's reading also opens the next bracket. Nothing of an
// attempt then falls between brackets, and the job span's self time is
// what runs outside attempts, not the cost of timing them.
type spanMeter struct {
	inner *vtime.Deterministic
	tr    *jobTrace
	last  time.Time // this attempt's latest End; zero on the job's own meter
}

func newSpanMeter(tr *jobTrace) *spanMeter {
	return &spanMeter{inner: vtime.NewDeterministic(), tr: tr}
}

func (m *spanMeter) Begin(op vtime.Op) {
	m.inner.Begin(op)
	if op == vtime.OpSetup || op == vtime.OpReduce || m.last.IsZero() {
		m.last = time.Now() // an attempt starts, or a reduce bracket on the job's meter
	}
	m.tr.ops[op].beginAt(m.last)
}

func (m *spanMeter) End(op vtime.Op, units, bytes int64) float64 {
	m.last = time.Now()
	m.tr.ops[op].endAt(m.last, units)
	return m.inner.End(op, units, bytes)
}

func (m *spanMeter) Charge(units float64) { m.inner.Charge(units) }

func (m *spanMeter) Fork() vtime.Meter {
	return &spanMeter{inner: m.inner.Fork().(*vtime.Deterministic), tr: m.tr}
}

// timedController wraps a job's controller with Plan/Completed spans.
// (Reduce logic is never wrapped: the controllers type-assert it.)
type timedController struct {
	inner mapreduce.Controller
	tr    *jobTrace
}

func (c *timedController) Name() string { return c.inner.Name() }

func (c *timedController) Plan(v *mapreduce.JobView) (float64, mapreduce.PlanAction) {
	c.tr.plan.begin()
	r, a := c.inner.Plan(v)
	c.tr.plan.end(1)
	return r, a
}

func (c *timedController) Completed(v *mapreduce.JobView) mapreduce.Directive {
	c.tr.completed.begin()
	d := c.inner.Completed(v)
	c.tr.completed.end(1)
	return d
}

// emit records the job span and its aggregated children.
func (tr *jobTrace) emit(r *recorder, start, end time.Time) {
	id := r.newID()
	for op := range tr.ops {
		tr.ops[op].emit(r, id, meterSpanNames[op])
	}
	tr.plan.emit(r, id, "approx.controller_plan")
	tr.completed.emit(r, id, "approx.controller_completed")
	r.interval(id, 0, "mapreduce.job", start, end, 1)
}

// selfTimes returns each span's self time in ns (BusyNS minus the
// BusyNS of its direct children), keyed by span id.
func selfTimes(spans []span) map[int64]int64 {
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.BusyNS
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.BusyNS
		}
	}
	return self
}

// spanTotal sums busy time (ns), self time (ns), units and brackets of
// the spans sharing a name.
type spanTotal struct {
	busy, self, count, calls int64
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := map[string]spanTotal{}
	for _, s := range spans {
		t := out[s.Name]
		t.busy += s.BusyNS
		t.self += self[s.ID]
		t.count += s.Count
		t.calls += s.Calls
		out[s.Name] = t
	}
	return out
}

// selfCover is the share of the root spans' wall that the named child
// spans account for (1 minus the roots' own self share).
func selfCover(spans []span) float64 {
	self := selfTimes(spans)
	var rootBusy, rootSelf int64
	for _, s := range spans {
		if s.Parent == 0 {
			rootBusy += s.BusyNS
			rootSelf += self[s.ID]
		}
	}
	return 1 - ratio(float64(rootSelf), float64(rootBusy))
}

// traceCostMetrics fills the bench.* rows of a traced run: the traced
// pass's median op wall, its ratio to the same ops untraced at the same
// configuration, and the share of traced wall inside named child spans.
func traceCostMetrics(m map[string]float64, tracedMS, untracedMS []float64, spans []span) {
	m["bench.trace_overhead_x"] = ratio(median(tracedMS), median(untracedMS))
	m["bench.traced_op_wall_ms_p50"] = median(tracedMS)
	m["bench.span_self_cover"] = selfCover(spans)
}

// writeTrace writes the spans as one JSON object per line.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
