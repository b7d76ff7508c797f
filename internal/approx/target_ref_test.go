package approx

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// Reference model: the planner as it stood at commit 24a4464, before
// the per-probe/per-key split, the dense key table and the snapshot-free
// realizedMet. refPredictError, refPlanComponents, refWorstRelError and
// the refTargetError methods are that commit's code with only the
// receiver type renamed (and PlanComponents reading the reducer's table
// through its index map, which keeps the Go-map iteration order it had;
// solve's gather split off as solveWith, so the front tests below can hand
// it components no reducer produces).
// The tests below drive the shipped code and this model over the same
// inputs and demand identical bits.

func refPredictError(pc PlanComponent, totalMaps, n1, n2 int, mbar, m float64, confidence float64) float64 {
	n := n1 + n2
	if n < 2 {
		return math.Inf(1)
	}
	if m <= 0 {
		m = 1
	}
	if m > mbar {
		m = mbar
	}
	N := float64(totalMaps)
	fn := float64(n)
	between := N * (N - fn) * pc.SU2 / fn
	if between < 0 {
		between = 0
	}
	cvar := pc.WithinDone + float64(n2)*mbar*(mbar-m)*pc.AvgWithin/m
	variance := between + N/fn*cvar
	if variance < 0 {
		variance = 0
	}
	return stats.TwoSidedT(confidence, fn-1) * math.Sqrt(variance)
}

func refPlanComponents(r *MultiStageReducer, view mapreduce.EstimateView) []PlanComponent {
	if r.tally.Clusters() < 2 {
		return nil
	}
	N := float64(view.TotalMaps)
	n := float64(r.tally.Clusters())
	out := make([]PlanComponent, 0, len(r.table))
	for slot := range r.table {
		agg := sumsOf(&r.table[slot].sums)
		out = append(out, PlanComponent{
			Key:        r.key(slot),
			Tau:        N / n * agg[sTau],
			SU2:        refSU2(agg, n),
			WithinDone: agg[sWithin],
			AvgWithin:  agg[sS2] / n,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// refSU2 is that commit's MultiStageReducer.su2 over n clusters.
func refSU2(agg *[5]float64, n float64) float64 {
	if n < 2 {
		return 0
	}
	mean := agg[sTau] / n
	v := (agg[sTau2] - n*mean*mean) / (n - 1)
	if v < 0 {
		return 0
	}
	return v
}

// Indices into sumsOf's view of a stats.ClusterSums, in field order:
// Σtau_i, Σtau_i², Σtau_i·M_i, the within-cluster sum and Σs_i².
const (
	sTau = iota
	sTau2
	sTauM
	sWithin
	sS2
)

// sumsOf views a ClusterSums as its five float64 sums, so the reference
// reads them with its own arithmetic and the planner tests can plant
// what no sequence of Adds reaches: an s_u^2 that rounds negative,
// ±Inf, NaN. TestSumsOfLayout pins the field order.
func sumsOf(a *stats.ClusterSums) *[5]float64 {
	return (*[5]float64)(unsafe.Pointer(a))
}

// planted returns a ClusterSums holding the given sums.
func planted(tau, tau2, tauM, within, s2 float64) stats.ClusterSums {
	var a stats.ClusterSums
	*sumsOf(&a) = [5]float64{tau, tau2, tauM, within, s2}
	return a
}

// TestSumsOfLayout checks sumsOf against the accumulator's own read-outs.
func TestSumsOfLayout(t *testing.T) {
	if unsafe.Sizeof(stats.ClusterSums{}) != unsafe.Sizeof([5]float64{}) {
		t.Fatalf("ClusterSums is %d bytes, sumsOf views 40", unsafe.Sizeof(stats.ClusterSums{}))
	}
	a := planted(3, 5, 7, 11, 13)
	d := stats.NewDesign(4, 2, 0, 0, 0.95, false)
	tau, su2, within, avgS2 := a.Plan(&d)
	if !sameBits(tau, 6) || !sameBits(su2, 0.5) || !sameBits(within, 11) || !sameBits(avgS2, 6.5) {
		t.Errorf("Plan of the planted sums = %v %v %v %v, want 6 0.5 11 6.5", tau, su2, within, avgS2)
	}
	d = stats.NewDesign(4, 2, 1, 5, 0.95, false)
	if b := a.Mean(&d).Value; !sameBits(b, 3) {
		t.Errorf("Mean of the planted sums = %v, want 3", b)
	}
}

func refGatherPlanComponents(v *mapreduce.JobView) []PlanComponent {
	if v.Logics == nil {
		return nil
	}
	view := mapreduce.EstimateView{
		TotalMaps:  v.TotalMaps,
		Dropped:    v.Dropped,
		Confidence: v.Confidence,
	}
	var all []PlanComponent
	for _, logic := range v.Logics() {
		if msr, ok := logic.(*MultiStageReducer); ok {
			all = append(all, refPlanComponents(msr, view)...)
		}
	}
	return all
}

func refWorstRelError(comps []PlanComponent, v *mapreduce.JobView, n1, n2 int, mbar, m float64) float64 {
	worst := 0.0
	for _, pc := range comps {
		errHalf := refPredictError(pc, v.TotalMaps, n1, n2, mbar, m, v.Confidence)
		if math.IsInf(errHalf, 1) || math.IsNaN(errHalf) {
			return math.Inf(1)
		}
		rel := errHalf
		if pc.Tau != 0 {
			rel = errHalf / math.Abs(pc.Tau)
		}
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

// defaultRatioGrid is the planners' ratio grid as the reference reads it.
func defaultRatioGrid() []float64 { return ratioGrid[:] }

type refTargetError struct {
	Target     float64
	Absolute   float64
	Pilot      bool
	PilotTasks int
	PilotRatio float64
	RatioGrid  []float64
	Slack      float64
	Strict     bool

	firstWave int
	ratio     float64
	planned   int
	solved    bool
	solveAt   int
}

func (c *refTargetError) init(v *mapreduce.JobView) {
	if c.firstWave > 0 {
		return
	}
	if c.Pilot {
		if c.PilotTasks <= 0 {
			c.PilotTasks = v.TotalMapSlots / 4
			if c.PilotTasks < 2 {
				c.PilotTasks = 2
			}
		}
		if c.PilotTasks > v.TotalMaps {
			c.PilotTasks = v.TotalMaps
		}
		if c.PilotRatio <= 0 || c.PilotRatio > 1 {
			c.PilotRatio = 0.01
		}
		c.firstWave = c.PilotTasks
	} else {
		c.firstWave = v.TotalMapSlots
		if c.firstWave > v.TotalMaps {
			c.firstWave = v.TotalMaps
		}
	}
}

func (c *refTargetError) Completed(v *mapreduce.JobView) mapreduce.Directive {
	c.init(v)
	switch {
	case !c.solved:
		if v.Completed < c.firstWave {
			return mapreduce.Directive{}
		}
		c.solve(v)
	case c.planned > 0 && v.Launched >= c.planned && v.Running == 0:
		if c.realizedMet(v) || v.Pending == 0 {
			return mapreduce.Directive{DropPending: true, SampleRatio: c.ratio}
		}
		c.solve(v)
		if c.planned <= v.Launched {
			extra := v.TotalMapSlots / 4
			if extra < 1 {
				extra = 1
			}
			c.planned = v.Launched + extra
			c.ratio = 1
		}
	case v.Completed >= c.solveAt && (c.planned == 0 || v.Launched < c.planned):
		c.solve(v)
	default:
		return mapreduce.Directive{}
	}
	return mapreduce.Directive{SampleRatio: c.ratio}
}

func (c *refTargetError) realizedMet(v *mapreduce.JobView) bool {
	if v.Estimates == nil {
		return true
	}
	ests := v.Estimates()
	if len(ests) == 0 {
		return true // no online estimates (e.g. barrier mode)
	}
	metRaw := func(errHalf, value float64) bool {
		if math.IsInf(errHalf, 1) || math.IsNaN(errHalf) {
			return false
		}
		if c.Target > 0 {
			if value == 0 {
				if errHalf > 0 {
					return false
				}
			} else if errHalf > c.Target*math.Abs(value) {
				return false
			}
		}
		if c.Absolute > 0 && errHalf > c.Absolute {
			return false
		}
		return true
	}
	if c.Strict {
		for _, e := range ests {
			if !metRaw(e.Est.Err, e.Est.Value) {
				return false
			}
		}
		return true
	}
	worstErr, worstVal := 0.0, 0.0
	for _, e := range ests {
		if math.IsInf(e.Est.Err, 1) || math.IsNaN(e.Est.Err) {
			return false
		}
		if e.Est.Err > worstErr {
			worstErr, worstVal = e.Est.Err, e.Est.Value
		}
	}
	return metRaw(worstErr, worstVal)
}

func (c *refTargetError) solve(v *mapreduce.JobView) {
	c.solveWith(v, refGatherPlanComponents(v))
}

func (c *refTargetError) solveWith(v *mapreduce.JobView, comps []PlanComponent) {
	c.solved = true
	c.solveAt = v.Completed + v.TotalMapSlots // next wave boundary
	// Fallback: no approximation possible — run everything precisely.
	c.ratio = 1
	c.planned = 0

	if len(comps) == 0 || v.Completed < 2 || v.AvgItems <= 0 {
		return
	}
	t0, tr, tp := v.CostParams()
	mbar := v.AvgItems
	n1 := v.Completed
	committed := v.Running // already launched, will complete regardless
	maxExtra := v.TotalMaps - v.Launched
	if maxExtra < 0 {
		maxExtra = 0
	}
	grid := c.RatioGrid
	if len(grid) == 0 {
		grid = defaultRatioGrid()
	}

	feasible := func(n2 int, m float64) bool {
		if c.Strict {
			for _, pc := range comps {
				errHalf := refPredictError(pc, v.TotalMaps, n1, n2, mbar, m, v.Confidence)
				if !c.meets(errHalf, pc.Tau) {
					return false
				}
			}
			return true
		}
		// Default: bound the key with the maximum predicted absolute
		// error (the paper's reported key).
		worstErr := 0.0
		worstTau := 0.0
		for _, pc := range comps {
			errHalf := refPredictError(pc, v.TotalMaps, n1, n2, mbar, m, v.Confidence)
			if math.IsInf(errHalf, 1) || math.IsNaN(errHalf) {
				return false
			}
			if errHalf > worstErr {
				worstErr, worstTau = errHalf, pc.Tau
			}
		}
		return c.meets(worstErr, worstTau)
	}

	bestRET := math.Inf(1)
	found := false
	var bestExtra int
	var bestRatio float64
	for _, ratio := range grid {
		m := math.Max(1, math.Round(ratio*mbar))
		hi := committed + maxExtra
		if !feasible(hi, m) {
			continue
		}
		// Binary search the minimal feasible n2 in [committed, hi].
		lo := committed
		for lo < hi {
			mid := (lo + hi) / 2
			if feasible(mid, m) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		extra := lo - committed
		ret := float64(extra) * (t0 + mbar*tr + m*tp)
		if ret < bestRET {
			bestRET = ret
			bestExtra = extra
			bestRatio = m / mbar
			found = true
		}
	}
	if !found {
		return // keep precise fallback
	}
	if bestRatio > 1 {
		bestRatio = 1
	}
	c.ratio = bestRatio
	// planned == launched means everything still pending is dropped.
	// MaxLaunch must stay positive to take effect, hence the floor.
	c.planned = v.Launched + bestExtra
	if c.planned < 1 {
		c.planned = 1
	}
}

func (c *refTargetError) meets(errHalf, tau float64) bool {
	if math.IsInf(errHalf, 1) || math.IsNaN(errHalf) {
		return false
	}
	slack := c.Slack
	if slack <= 0 || slack > 1 {
		slack = 0.8
	}
	if c.Target > 0 {
		if tau == 0 {
			if errHalf > 0 {
				return false
			}
		} else if errHalf > slack*c.Target*math.Abs(tau) {
			return false
		}
	}
	if c.Absolute > 0 && errHalf > slack*c.Absolute {
		return false
	}
	return true
}

// refJob is a synthetic job: a fixed number of map tasks whose outputs
// are consumed wave by wave into one MultiStageReducer per partition,
// and the JobView a controller would see at each boundary.
type refJob struct {
	totalMaps, slots int
	reducers         []*MultiStageReducer
	logics           []mapreduce.ReduceLogic
	sumItems         int64
	completed        int
	rng              *rand.Rand
	draw             func() int // next key rank in [0, keys)
	keys             int
}

// newRefJob builds a job over `keys` keys drawn Zipf(1.2) or uniformly,
// hash-partitioned over `parts` reduces.
func newRefJob(seed int64, keys, parts, totalMaps, slots int, zipf bool) *refJob {
	rng := stats.NewRand(seed)
	j := &refJob{totalMaps: totalMaps, slots: slots, rng: rng, keys: keys}
	if zipf && keys > 1 {
		z := stats.NewZipf(rng, 1.2, uint64(keys))
		j.draw = func() int { return int(z.Next()) - 1 }
	} else {
		j.draw = func() int { return rng.Intn(keys) }
	}
	for p := 0; p < parts; p++ {
		r := NewMultiStageReducer(OpSum)
		j.reducers = append(j.reducers, r)
		j.logics = append(j.logics, r)
	}
	return j
}

// complete consumes n more map outputs sampled at the given ratio. Each
// output is the combined output of a map task that emitted the draws of
// its partition (key rank mod parts) in draw order, so keys enter a
// reducer's table in first-draw order: never sorted, and — unlike the Go
// map order of the string-keyed Combined payload this used to go
// through — the same on every run, so a failure replays from its seed.
func (j *refJob) complete(n int, ratio float64) {
	parts := len(j.reducers)
	for i := 0; i < n; i++ {
		items := int64(900 + int(j.rng.Float64()*200)) // mean is not an integer
		sampled := int64(math.Max(1, math.Round(ratio*float64(items))))
		draws := make([]int, sampled)
		for u := range draws {
			draws[u] = j.draw()
		}
		for p, r := range j.reducers {
			r.Consume(mapOut(j.completed, items, sampled, true, func(e mapreduce.Emitter) {
				for _, k := range draws {
					if k%parts == p {
						e.Emit(fmt.Sprintf("key%05d", k), 1+float64(k%3))
					}
				}
			}))
		}
		j.sumItems += items
		j.completed++
	}
}

// view is the JobView after the completions so far, with `launched`
// tasks launched and `running` of them still running.
func (j *refJob) view(launched, running int) *mapreduce.JobView {
	v := &mapreduce.JobView{
		TotalMaps:     j.totalMaps,
		TotalMapSlots: j.slots,
		Launched:      launched,
		Completed:     j.completed,
		Running:       running,
		Pending:       j.totalMaps - launched,
		Confidence:    0.95,
		Logics:        func() []mapreduce.ReduceLogic { return j.logics },
		CostParams:    func() (float64, float64, float64) { return 1.5, 0.006, 0.024 },
	}
	if j.completed > 0 {
		v.AvgItems = float64(j.sumItems) / float64(j.completed)
	}
	// The snapshot the tracker hands out: every partition's sorted
	// estimates, concatenated in partition order.
	v.Estimates = func() []mapreduce.KeyEstimate {
		view := mapreduce.EstimateView{TotalMaps: v.TotalMaps, Dropped: v.Dropped, Confidence: v.Confidence}
		var all []mapreduce.KeyEstimate
		for _, l := range j.logics {
			all = append(all, l.Estimates(view)...)
		}
		return all
	}
	return v
}

// pair is one shipped controller and its reference twin.
type pair struct {
	name string
	got  *TargetError
	ref  *refTargetError
}

func newPair(name string, cfg TargetError) pair {
	return pair{name, &cfg, &refTargetError{
		Target: cfg.Target, Absolute: cfg.Absolute, Pilot: cfg.Pilot, PilotTasks: cfg.PilotTasks,
		PilotRatio: cfg.PilotRatio, Strict: cfg.Strict,
	}}
}

// step hands both controllers the same view and demands the same
// directive and the same plan state.
func (p pair) step(t *testing.T, at string, v *mapreduce.JobView) mapreduce.Directive {
	t.Helper()
	got, want := p.got.Completed(v), p.ref.Completed(v)
	if got.DropPending != want.DropPending || got.KillRunning != want.KillRunning ||
		math.Float64bits(got.SampleRatio) != math.Float64bits(want.SampleRatio) || (got.Abort == nil) != (want.Abort == nil) {
		t.Fatalf("%s %s: directive %+v, reference %+v", p.name, at, got, want)
	}
	if math.Float64bits(p.got.ratio) != math.Float64bits(p.ref.ratio) || p.got.planned != p.ref.planned ||
		p.got.solved != p.ref.solved || p.got.solveAt != p.ref.solveAt {
		t.Fatalf("%s %s: plan (ratio %v, planned %d, solveAt %d), reference (%v, %d, %d)", p.name, at,
			p.got.ratio, p.got.planned, p.got.solveAt, p.ref.ratio, p.ref.planned, p.ref.solveAt)
	}
	if got, want := p.got.realizedMet(v), p.ref.realizedMet(v); got != want {
		t.Fatalf("%s %s: realizedMet %v, reference %v", p.name, at, got, want)
	}
	return got
}

// refConfigs are the controller modes the issue names.
func refConfigs() []pair {
	return []pair{
		newPair("worst-key", TargetError{Target: 0.02}),
		newPair("strict", TargetError{Target: 0.5, Strict: true}),
		newPair("strict-tight", TargetError{Target: 0.02, Strict: true}),
		newPair("absolute", TargetError{Absolute: 300}),
		newPair("both", TargetError{Target: 0.05, Absolute: 500}),
		newPair("strict-absolute", TargetError{Absolute: 300, Strict: true}),
		newPair("pilot", TargetError{Target: 0.05, Pilot: true, PilotRatio: 0.2}),
		newPair("grid", TargetError{Target: 0.03}),
	}
}

// TestPlannerMatchesReference drives every mode through the life of a
// job — first wave, solve, the planned tasks finishing in two batches,
// the realized check, a re-solve per wave — over seeded key sets.
func TestPlannerMatchesReference(t *testing.T) {
	sets := []struct {
		keys, parts int
		zipf        bool
		modes       int // first n of refConfigs
	}{
		{1, 1, false, 8}, {2, 2, true, 8}, {2, 1, false, 8},
		{400, 1, true, 8}, {400, 3, false, 8}, {400, 8, true, 8},
		{20000, 5, true, 3}, {20000, 8, false, 2},
	}
	if testing.Short() {
		sets = sets[:6]
	}
	for si, set := range sets {
		for _, p := range refConfigs()[:set.modes] {
			name := fmt.Sprintf("%s/%dkeys/%dparts/zipf=%v", p.name, set.keys, set.parts, set.zipf)
			const totalMaps, slots = 200, 24
			j := newRefJob(int64(100+si), set.keys, set.parts, totalMaps, slots, set.zipf)
			first, ratio := slots, 1.0
			if p.got.Pilot {
				first, ratio = slots/4, p.got.PilotRatio
			}
			// Mid first wave: quiet.
			j.complete(first-1, ratio)
			p.step(t, name+" mid-wave", j.view(first, 1))
			j.complete(1, ratio)
			launched, stuck := first, 0
			for round := 0; round < 8 && launched < totalMaps; round++ {
				d := p.step(t, fmt.Sprintf("%s round %d", name, round), j.view(launched, 0))
				if d.DropPending {
					break
				}
				// Launch toward the plan, a wave at most, and finish
				// it in two batches so a solve sees running tasks.
				next := launched + slots
				if p.got.planned > 0 && p.got.planned < next {
					next = p.got.planned
				}
				if next > totalMaps {
					next = totalMaps
				}
				batch := next - launched
				if batch <= 0 {
					// Plan reached: the next call is the realized check,
					// which drops the rest or extends the plan.
					if stuck++; stuck > 1 {
						break
					}
					continue
				}
				r := p.got.ratio
				j.complete(batch/2, r)
				p.step(t, fmt.Sprintf("%s round %d half", name, round), j.view(next, batch-batch/2))
				j.complete(batch-batch/2, r)
				launched = next
			}
		}
	}
}

// handAgg is one key's aggregate as a hand-built reducer plants it.
type handAgg struct {
	key string
	keyAgg
}

// plantKey appends key's aggregate to r's table; key must be new to r.
func plantKey(r *MultiStageReducer, key string, agg keyAgg) {
	r.index.Insert(key)
	r.table = append(r.table, agg)
}

// handReducer builds a reducer over n consumed clusters of 1000 units,
// read in full and emitting nothing, whose table then holds exactly the
// given aggregates, in the given slot order.
func handReducer(n int, aggs ...handAgg) *MultiStageReducer {
	r := NewMultiStageReducer(OpSum)
	for i := 0; i < n; i++ {
		r.Consume(mapOut(i, 1000, 1000, true, func(mapreduce.Emitter) {}))
	}
	for _, a := range aggs {
		plantKey(r, a.key, a.keyAgg)
	}
	return r
}

// handView is a first-wave-complete view over hand-built reducers.
func handView(n int, rs ...*MultiStageReducer) *mapreduce.JobView {
	j := &refJob{totalMaps: 200, slots: n, completed: n, sumItems: int64(n)*1000 + 7}
	for _, r := range rs {
		j.reducers = append(j.reducers, r)
		j.logics = append(j.logics, r)
	}
	return j.view(n, 0)
}

// tied returns an aggregate whose s_u^2 rounds negative and is clamped
// to zero, so its predicted and realized half-widths depend on `within`
// and sumS2 alone: two such keys with different totals tie exactly.
func tied(key string, sumTau, within float64) handAgg {
	return handAgg{key, keyAgg{units: 100, sums: planted(sumTau, 0, 0, within, 40)}}
}

// TestPlannerTieRule constructs exact ties in errHalf between the key
// that meets the target and one that cannot, in every arrangement in
// which the first key in (partition, key) order is not the first key in
// table order, and checks them against the reference's sorted scan.
func TestPlannerTieRule(t *testing.T) {
	const n = 24
	big, small := 1e9, 10.0 // tau: the bound is 2% of it
	light := handAgg{"light", keyAgg{units: 9, sums: planted(50, 200, 0, 1, 1)}}
	cases := []struct {
		name string
		rs   []*MultiStageReducer
	}{
		{"same partition, later slot sorts first, meets", []*MultiStageReducer{
			handReducer(n, light, tied("zz", small, 5e7), tied("aa", big, 5e7))}},
		{"same partition, later slot sorts first, fails", []*MultiStageReducer{
			handReducer(n, light, tied("zz", big, 5e7), tied("aa", small, 5e7))}},
		{"same partition, earlier slot sorts first", []*MultiStageReducer{
			handReducer(n, tied("aa", big, 5e7), light, tied("zz", small, 5e7))}},
		{"different partitions, earlier partition wins over smaller key", []*MultiStageReducer{
			handReducer(n, light, tied("zz", big, 5e7)), handReducer(n, tied("aa", small, 5e7))}},
		{"different partitions, earlier partition fails", []*MultiStageReducer{
			handReducer(n, tied("zz", small, 5e7)), handReducer(n, light, tied("aa", big, 5e7))}},
		{"three-way tie across and within partitions", []*MultiStageReducer{
			handReducer(n, light), handReducer(n, tied("mm", small, 5e7), tied("bb", big, 5e7)), handReducer(n, tied("aa", small, 5e7))}},
		{"three-way tie, failing key sorts first", []*MultiStageReducer{
			handReducer(n, light), handReducer(n, tied("mm", big, 5e7), tied("bb", small, 5e7)), handReducer(n, tied("aa", big, 5e7))}},
		{"all half-widths zero", []*MultiStageReducer{
			handReducer(n, tied("zz", small, 0), tied("aa", big, 0))}},
	}
	differ := 0
	for _, tc := range cases {
		for _, cfg := range []TargetError{{Target: 0.02}, {Target: 0.02, Absolute: 1e12}, {Absolute: 1e5}} {
			p := newPair(tc.name, cfg)
			v := handView(n, tc.rs...)
			p.step(t, "solve", v)
			if p.got.planned > 0 {
				differ++
			}
			// The realized check at the plan's end, same tie.
			p.got.planned, p.ref.planned = n, n
			p.step(t, "realized", v)
		}
	}
	if differ == 0 || differ == len(cases)*3 {
		t.Errorf("tie cases do not discriminate: %d of %d found a plan", differ, len(cases)*3)
	}
}

// sameBits reports whether two results are the same float64: equal bit
// patterns, or both NaN (which operand's payload an x86 add of two NaNs
// keeps is the register allocator's choice, and nothing reads it).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestPredictErrorBits compares PredictError with the reference bit for
// bit over seeded components and plans, and over the edge values.
func TestPredictErrorBits(t *testing.T) {
	check := func(pc PlanComponent, totalMaps, n1, n2 int, mbar, m, conf float64) {
		t.Helper()
		got := PredictError(pc, totalMaps, n1, n2, mbar, m, conf)
		want := refPredictError(pc, totalMaps, n1, n2, mbar, m, conf)
		if !sameBits(got, want) {
			t.Fatalf("PredictError(%+v, %d, %d, %d, %v, %v, %v) = %v (%#x), reference %v (%#x)",
				pc, totalMaps, n1, n2, mbar, m, conf, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := stats.NewRand(5)
	for i := 0; i < 20000; i++ {
		pc := PlanComponent{Key: "k", Tau: rng.Float64() * 1e6, SU2: rng.ExpFloat64() * 300,
			WithinDone: rng.ExpFloat64() * 1e6, AvgWithin: rng.Float64()}
		mbar := 500 + rng.Float64()*3000
		m := math.Max(1, math.Round(rng.Float64()*1.2*mbar)) // sometimes above mbar: the clamp
		check(pc, 740, 2+rng.Intn(80), rng.Intn(660), mbar, m, 0.95)
	}
	inf, nan := math.Inf(1), math.NaN()
	edge := []float64{0, -1e-9, 1e-300, 1, 250, 1e300, inf, -inf, nan}
	for _, su2 := range edge {
		for _, within := range edge {
			for _, avg := range edge {
				pc := PlanComponent{SU2: su2, WithinDone: within, AvgWithin: avg}
				for _, plan := range []struct {
					n1, n2  int
					mbar, m float64
				}{
					{80, 40, 2000.4, 500}, {80, 0, 2000.4, 2000}, {80, 40, 2000.6, 2001}, // m > mbar
					{80, 660, 2000, 2000},                                 // n = N: no between-cluster term
					{80, 40, 2000, 0}, {80, 40, 2000, -3}, {80, 40, 0, 5}, // m <= 0, mbar = 0
					{1, 0, 2000, 100}, {0, 1, 2000, 100}, {0, 0, 2000, 100}, {1, 1, 2000, 100}, // n < 2, n = 2
				} {
					check(pc, 740, plan.n1, plan.n2, plan.mbar, plan.m, 0.95)
				}
			}
		}
	}
	// A confidence outside (0, 1) makes the quantile NaN.
	check(PlanComponent{SU2: 250, WithinDone: 4e6, AvgWithin: 0.09}, 740, 80, 40, 2000, 500, 1)
}

// TestPlannerEdgeComponents plants zero totals, negative-rounding and
// non-finite statistics in a real key set and checks plans and verdicts
// against the reference in every mode.
func TestPlannerEdgeComponents(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	plants := map[string]func(a *[5]float64){
		"tau=0":        func(a *[5]float64) { a[sTau], a[sTau2] = 0, 0 },
		"tau=0,spread": func(a *[5]float64) { a[sTau], a[sTau2] = 0, 9 },
		"su2<0":        func(a *[5]float64) { a[sTau2] = 0 },
		"within=0":     func(a *[5]float64) { a[sWithin], a[sS2] = 0, 0 },
		"within<0":     func(a *[5]float64) { a[sWithin] = -1e12 },
		"su2=inf":      func(a *[5]float64) { a[sTau2] = inf },
		"su2=nan":      func(a *[5]float64) { a[sTau2] = nan },
		"within=nan":   func(a *[5]float64) { a[sWithin] = nan },
		"tau=inf":      func(a *[5]float64) { a[sTau] = inf },
	}
	for name, plant := range plants {
		for _, p := range refConfigs() {
			j := newRefJob(77, 400, 3, 200, 24, true)
			first, ratio := 24, 1.0
			if p.got.Pilot {
				first, ratio = 6, p.got.PilotRatio
			}
			j.complete(first, ratio)
			plant(sumsOf(&j.reducers[1].table[len(j.reducers[1].table)/2].sums))
			v := j.view(first, 0)
			p.step(t, name+" solve", v)
			p.got.planned, p.ref.planned = first, first
			p.step(t, name+" realized", v)

			comps := refGatherPlanComponents(v)
			p.got.plan.gather(v)
			for _, n2 := range []int{0, 30, 176} {
				got := p.got.plan.worstRelError(newProbe(v.TotalMaps, first, n2, v.AvgItems, 200, v.Confidence))
				want := refWorstRelError(comps, v, first, n2, v.AvgItems, 200)
				if !sameBits(got, want) {
					t.Fatalf("%s %s: worstRelError(n2=%d) = %v, reference %v", p.name, name, n2, got, want)
				}
			}
		}
	}
}

// TestPlannerNoAllocs checks that once a controller's buffers are warm a
// probe, a gather and a realized check allocate nothing.
func TestPlannerNoAllocs(t *testing.T) {
	j := newRefJob(3, 400, 4, 200, 24, true)
	j.complete(24, 1)
	v := j.view(24, 0)
	for _, c := range []*TargetError{{Target: 0.02}, {Target: 0.5, Strict: true}} {
		c.solve(v)
		if n := testing.AllocsPerRun(50, func() {
			c.feasible(newProbe(v.TotalMaps, 24, 60, v.AvgItems, 200, v.Confidence))
		}); n != 0 {
			t.Errorf("strict=%v: %v allocations per probe, want 0", c.Strict, n)
		}
		if n := testing.AllocsPerRun(50, func() { c.plan.gather(v) }); n != 0 {
			t.Errorf("strict=%v: %v allocations per gather, want 0", c.Strict, n)
		}
		if n := testing.AllocsPerRun(50, func() { c.realizedMet(v) }); n != 0 {
			t.Errorf("strict=%v: %v allocations per realizedMet, want 0", c.Strict, n)
		}
	}
	d := &DeadlineSLO{Deadline: 1000}
	d.plan.gather(v)
	if n := testing.AllocsPerRun(50, func() {
		d.plan.worstRelError(newProbe(v.TotalMaps, 24, 60, v.AvgItems, 200, v.Confidence))
	}); n != 0 {
		t.Errorf("%v allocations per worstRelError, want 0", n)
	}
}

// BenchmarkTargetSolve is one solve of the default grid over 20 k keys
// in 10 partitions after a first wave of 80 maps, the shape of the
// keys-target benchmark workload.
func BenchmarkTargetSolve(b *testing.B) {
	j := newRefJob(1, 20000, 10, 740, 80, true)
	j.complete(80, 1)
	v := j.view(80, 0)
	c := &TargetError{Target: 0.02}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.solve(v)
	}
}

// refFeasible is TargetError.feasible as it stood before the front: the
// worst key is sought over every gathered key.
func refFeasible(c *TargetError, p probe) bool {
	keys := c.plan.stats
	worst, worstErr := -1, 0.0
	for i := range keys {
		k := &keys[i]
		errHalf := p.errHalf(k.su2, k.withinDone, k.avgWithin)
		if c.Strict {
			if !c.meets(errHalf, k.tau, planSlack) {
				return false
			}
			continue
		}
		if math.IsInf(errHalf, 1) || math.IsNaN(errHalf) {
			return false
		}
		//lint:ignore nofloateq the tie rule: exact ties go to the first key in (partition, key) order
		if errHalf > worstErr || errHalf == worstErr && worst >= 0 && c.plan.before(i, worst) {
			worst, worstErr = i, errHalf
		}
	}
	return worst < 0 || c.meets(worstErr, keys[worst].tau, planSlack)
}

// refDominates is keepFront's dominance, one component at a time: a -Inf
// is matched only by -Inf, anything else by a value >= it.
func refDominates(t *planTable, i, j int) bool {
	geq := func(a, b float64) bool {
		if math.IsInf(b, -1) {
			return math.IsInf(a, -1)
		}
		return a >= b
	}
	a, b := t.stats[i], t.stats[j]
	return geq(a.su2, b.su2) && geq(a.withinDone, b.withinDone) && geq(a.avgWithin, b.avgWithin) && t.before(i, j)
}

// refFront is the front by brute force: every key no other key dominates.
func refFront(t *planTable) []int32 {
	front := []int32{}
	for j := range t.stats {
		dominated := false
		for i := range t.stats {
			if refDominates(t, i, j) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, int32(j))
		}
	}
	return front
}

// refComponents lists the table's keys as the reference planner gathers
// them: in (partition, key) order.
func refComponents(t *planTable) []PlanComponent {
	order := make([]int, len(t.stats))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return t.before(order[a], order[b]) })
	comps := make([]PlanComponent, 0, len(order))
	for _, i := range order {
		s := t.stats[i]
		comps = append(comps, PlanComponent{Key: t.reducers[s.part].key(int(s.slot)),
			Tau: s.tau, SU2: s.su2, WithinDone: s.withinDone, AvgWithin: s.avgWithin})
	}
	return comps
}

// frontKey is one key of a hand-built plan table.
type frontKey struct {
	part                            int
	tau, su2, withinDone, avgWithin float64
}

// frontTable builds a plan table holding exactly the given keys, in the
// given order, under names whose order within a partition is shuffled
// against it.
func frontTable(rng *rand.Rand, parts int, keys []frontKey) *planTable {
	t := &planTable{}
	for p := 0; p < parts; p++ {
		t.reducers = append(t.reducers, NewMultiStageReducer(OpSum))
	}
	names := rng.Perm(len(keys))
	for i, k := range keys {
		r := t.reducers[k.part]
		t.stats = append(t.stats, planStat{tau: k.tau, su2: k.su2, withinDone: k.withinDone, avgWithin: k.avgWithin,
			part: int32(k.part), slot: int32(len(r.table))})
		plantKey(r, fmt.Sprintf("key%06d", names[i]), keyAgg{})
	}
	return t
}

// frontView is a view of a job of 200 maps, `completed` of them done
// and `running` running out of `launched`.
func frontView(completed, launched, running int) *mapreduce.JobView {
	return &mapreduce.JobView{
		TotalMaps: 200, TotalMapSlots: 24, Launched: launched, Completed: completed, Running: running,
		Pending: 200 - launched, Confidence: 0.95, AvgItems: 1000.4,
		CostParams: func() (float64, float64, float64) { return 1.5, 0.006, 0.024 },
	}
}

// frontConfigs are the non-strict modes the front serves, plus one
// strict mode, which must ignore it.
func frontConfigs() []TargetError {
	return []TargetError{
		{Target: 0.02}, {Target: 0.3}, {Absolute: 300}, {Target: 0.05, Absolute: 500},
		{Target: 0.02}, {Target: 0.5, Strict: true},
	}
}

// checkFront holds the table's front to the brute-force front, a capped
// front to either that or every key, and the verdicts and plans that
// probe them to the full scan and the reference planner.
func checkFront(t *testing.T, name string, table *planTable) {
	t.Helper()
	n := len(table.stats)
	table.keepFront(n + 1)
	if want := refFront(table); !slices.Equal(table.front, want) {
		t.Fatalf("%s: front %v, brute force %v", name, table.front, want)
	}
	exact := slices.Clone(table.front)
	for _, limit := range []int{0, 1, 3, 40, n + 1} {
		table.keepFront(limit)
		all := len(table.front) == n
		if !slices.Equal(table.front, exact) && !all {
			t.Fatalf("%s: front capped at %d is %v: neither the front %v nor every key", name, limit, table.front, exact)
		}
		if len(exact) > limit && !all {
			t.Fatalf("%s: front of %d keys kept under a cap of %d", name, len(exact), limit)
		}
		for _, cfg := range frontConfigs() {
			c := cfg
			c.plan = *table
			for _, pr := range []struct {
				n1, n2 int
				m      float64
				conf   float64
			}{
				{24, 0, 500, 0.95}, {24, 40, 500, 0.95}, {24, 176, 500, 0.95}, // n = N: no between-cluster term
				{24, 40, 1000.4, 0.95}, {2, 60, 1, 0.95}, {100, 1, 2000, 0.95}, // m = mbar: no within term
				{1, 0, 500, 0.95}, {24, 40, 500, 1}, // no quantile: NaN for every key
			} {
				p := newProbe(200, pr.n1, pr.n2, 1000.4, pr.m, pr.conf)
				if got, want := c.feasible(p), refFeasible(&c, p); got != want {
					t.Fatalf("%s cap %d %+v probe %+v: feasible %v, full scan %v", name, limit, cfg, pr, got, want)
				}
			}
		}
	}
	for _, view := range []*mapreduce.JobView{frontView(24, 24, 0), frontView(24, 40, 16), frontView(60, 90, 20),
		frontView(24, 20, 10)} { // completed + running > launched: n can pass N, so no front
		for _, cfg := range frontConfigs() {
			c := cfg
			c.plan = *table
			ref := &refTargetError{Target: cfg.Target, Absolute: cfg.Absolute, Strict: cfg.Strict}
			c.search(view)
			ref.solveWith(view, refComponents(table))
			if math.Float64bits(c.ratio) != math.Float64bits(ref.ratio) || c.planned != ref.planned {
				t.Fatalf("%s %+v view %d/%d/%d: plan (ratio %v, planned %d), reference (%v, %d)", name, cfg,
					view.Completed, view.Launched, view.Running, c.ratio, c.planned, ref.ratio, ref.planned)
			}
		}
	}
}

// randomKeys draws n keys over parts partitions. With a palette the
// components repeat, so identical triples and exact half-width ties are
// common; without one they are continuous and errHalf orders them.
func randomKeys(rng *rand.Rand, n, parts int, palette []float64) []frontKey {
	keys := make([]frontKey, n)
	draw := func(scale float64) float64 {
		if palette != nil {
			return palette[rng.Intn(len(palette))]
		}
		return rng.ExpFloat64() * scale
	}
	for i := range keys {
		keys[i] = frontKey{part: rng.Intn(parts), tau: rng.Float64() * 1e6, su2: draw(300), withinDone: draw(1e6), avgWithin: draw(1)}
	}
	return keys
}

// TestPlannerFrontMatchesReference checks the front against the brute
// force and the full scan on random tables, on the benchmark's shape and
// on adversarial tables.
func TestPlannerFrontMatchesReference(t *testing.T) {
	rng := stats.NewRand(26)
	inf, nan := math.Inf(1), math.NaN()
	small := []float64{0, 1, 2, 3}
	for i := 0; i < 40; i++ {
		n, parts := 1+rng.Intn(300), 1+rng.Intn(6)
		var palette []float64
		if i%2 == 1 {
			palette = small
		}
		checkFront(t, fmt.Sprintf("random %d (%d keys, %d parts)", i, n, parts), frontTable(rng, parts, randomKeys(rng, n, parts, palette)))
	}

	// Identical triples inside and across partitions: the tie rule alone
	// picks the worst key, so the front is the first key of each triple.
	var same []frontKey
	for i := 0; i < 60; i++ {
		same = append(same, frontKey{part: i % 3, tau: float64(1 + i%7*1e5), su2: 250, withinDone: 4e6, avgWithin: 0.1})
		same = append(same, frontKey{part: (i + 1) % 3, tau: 0, su2: 1, withinDone: 2e6, avgWithin: 0.1})
	}
	checkFront(t, "identical triples", frontTable(rng, 3, same))

	// Non-finite, negative and zero components, and zero totals, mixed
	// into a real-looking table.
	edge := []float64{math.Inf(-1), -1e12, -1, math.Copysign(0, -1), 0, 1e-300, 1, 250, 1e6, 1e300, inf, nan}
	for i := 0; i < 20; i++ {
		keys := randomKeys(rng, 80, 4, nil)
		for k := range keys {
			if rng.Intn(3) == 0 {
				switch rng.Intn(4) {
				case 0:
					keys[k].su2 = edge[rng.Intn(len(edge))]
				case 1:
					keys[k].withinDone = edge[rng.Intn(len(edge))]
				case 2:
					keys[k].avgWithin = edge[rng.Intn(len(edge))]
				default:
					keys[k].tau = 0
				}
			}
		}
		checkFront(t, fmt.Sprintf("edge components %d", i), frontTable(rng, 4, keys))
	}
	for _, v := range edge {
		keys := randomKeys(rng, 50, 2, small)
		for k := range keys {
			if k%5 == 0 {
				keys[k].su2, keys[k].avgWithin = v, v
			}
		}
		checkFront(t, fmt.Sprintf("su2 = avgWithin = %v on every fifth key", v), frontTable(rng, 2, keys))
	}

	// Anti-correlated: su2 rises as withinDone falls, so no key dominates
	// another and every key is on the front.
	anti := make([]frontKey, 500)
	for i := range anti {
		anti[i] = frontKey{part: i % 10, tau: 1e6, su2: float64(i + 1), withinDone: float64(500 - i), avgWithin: 0.5}
	}
	table := frontTable(rng, 10, anti)
	checkFront(t, "anti-correlated", table)
	if len(refFront(table)) != 500 {
		t.Fatalf("anti-correlated table has a front of %d keys, want all 500", len(refFront(table)))
	}

	// The benchmark's shape: 20 k Zipf keys in 10 partitions after a
	// first wave of 80 maps.
	j := newRefJob(1, 20000, 10, 740, 80, true)
	j.complete(80, 1)
	v := j.view(80, 0)
	c := &TargetError{Target: 0.02}
	c.solve(v)
	if len(c.plan.front) > 20 {
		t.Errorf("benchmark shape: front of %d keys out of %d", len(c.plan.front), len(c.plan.stats))
	}
	t.Logf("benchmark shape: front of %d keys out of %d", len(c.plan.front), len(c.plan.stats))
	if !testing.Short() {
		table := c.plan
		checkFront(t, "benchmark shape", &table)
	}
	ref := &refTargetError{Target: 0.02}
	ref.solve(v)
	if math.Float64bits(c.ratio) != math.Float64bits(ref.ratio) || c.planned != ref.planned {
		t.Fatalf("benchmark shape: plan (ratio %v, planned %d), reference (%v, %d)", c.ratio, c.planned, ref.ratio, ref.planned)
	}
	if n := testing.AllocsPerRun(20, func() { c.plan.keepFront(121) }); n != 0 {
		t.Errorf("%v allocations per front, want 0", n)
	}
}

// FuzzPlannerFront decodes a table from the input, each key's partition
// and components picked from a palette of ties and edge values, and runs
// the front, verdict and plan comparisons on it.
func FuzzPlannerFront(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 3, 4, 1, 1, 2, 3, 4, 0, 5, 5, 5, 0})
	f.Add([]byte{3, 0, 13, 7, 7, 1, 1, 7, 13, 7, 1, 2, 0, 0, 0, 0, 0, 12, 12, 12, 2})
	f.Add([]byte{1, 0, 14, 14, 14, 3, 0, 8, 8, 8, 3, 0, 0, 8, 8, 3})
	palette := []float64{math.Inf(-1), -1e12, -1, math.Copysign(0, -1), 0, 1e-300, 0.5, 1, 2, 3, 250, 1e6, 1e300, math.Inf(1), math.NaN()}
	taus := []float64{0, -5e5, 1, 1e3, 1e6, 1e9}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		parts := 1 + int(data[0])%4
		var keys []frontKey
		for b := data[1:]; len(b) >= 5 && len(keys) < 64; b = b[5:] {
			keys = append(keys, frontKey{part: int(b[0]) % parts, tau: taus[int(b[4])%len(taus)],
				su2: palette[int(b[1])%len(palette)], withinDone: palette[int(b[2])%len(palette)], avgWithin: palette[int(b[3])%len(palette)]})
		}
		checkFront(t, "fuzz", frontTable(stats.NewRand(int64(len(data))), parts, keys))
	})
}

// BenchmarkTargetSolveAntiCorrelated is BenchmarkTargetSolve's shape
// with no key dominating another: every key is on the front, which
// keepFront gives up on past the solve's probe count.
func BenchmarkTargetSolveAntiCorrelated(b *testing.B) {
	const keys, parts, n = 20000, 10, 80
	var rs []*MultiStageReducer
	for p := 0; p < parts; p++ {
		var aggs []handAgg
		for i := p; i < keys; i += parts {
			// tau = 0 and s_u^2 = i+1 exactly; within falls as s_u^2 rises.
			aggs = append(aggs, handAgg{fmt.Sprintf("key%05d", i), keyAgg{units: 100,
				sums: planted(0, float64(i+1)*(n-1), 0, float64(keys-i)*1e3, 40)}})
		}
		rs = append(rs, handReducer(n, aggs...))
	}
	v := handView(n, rs...)
	v.TotalMaps = 740
	v.Pending = 740 - n
	c := &TargetError{Absolute: 6e4}
	c.solve(v)
	if len(c.plan.front) != keys || c.planned == 0 {
		b.Fatalf("front of %d keys, planned %d: want every key and a plan", len(c.plan.front), c.planned)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.solve(v)
	}
}
