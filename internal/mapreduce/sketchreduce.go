package mapreduce

import (
	"math"
	"sort"

	"approxhadoop/internal/sketch"
	"approxhadoop/internal/stats"
)

// This file implements the sketch reducer family: ReduceLogic
// implementations for the three queries the sketch plane serves —
// distinct count, top-k heavy hitters, and membership. Each consumes
// both payload representations uniformly: sketch outputs (Job.Sketch)
// are merged, which is O(groups) per map task regardless of input
// size, and composite pairs (the EmitElement fallback) are folded
// exactly, which makes the pairs run both the shuffle-volume baseline
// and the ground truth the sketch run is validated against.
//
// Error composition with multi-stage sampling: when the job sampled
// (m_i < M_i) or dropped clusters, the reduce only saw part of the
// population, so a sketch estimate carries two error sources — the
// sketch's own noise and the unseen data. Sums extrapolate by the
// paper's Section 3.1 cluster estimators; distinct counts do not
// (elements recur across clusters), so DistinctReduce and
// MembershipReduce report the observed-distinct estimate widened by
// the worst-case unseen contribution V·(1/coverage − 1) — the bound
// is exact when every unseen element is new (all-singletons), and
// conservative otherwise. TopKReduce counts are additive, so they do
// scale by the standard two-stage factor (N/n)·(ΣM/Σm), as does the
// CMS overestimation bound ε·W.

// coverage estimates the fraction of population units the reduce saw:
// Σm over the consumed clusters divided by the extrapolated population
// total N·(ΣM/n). Returns 1 when nothing was missed.
func coverage(t *Tally, view EstimateView) float64 {
	if t.Exact(view) {
		return 1
	}
	if t.n == 0 || t.units <= 0 || t.sampled <= 0 {
		return 0
	}
	pop := float64(t.units) / float64(t.n) * float64(view.TotalMaps)
	cov := float64(t.sampled) / pop
	if cov > 1 {
		cov = 1
	}
	return cov
}

// expansion returns the two-stage expansion factor (N/n)·(ΣM/Σm) for
// additive quantities (counts of occurrences), 1 when complete.
func expansion(t *Tally, view EstimateView) float64 {
	if t.Exact(view) {
		return 1
	}
	if t.n == 0 || t.sampled <= 0 {
		return math.NaN()
	}
	return float64(view.TotalMaps) / float64(t.n) * float64(t.units) / float64(t.sampled)
}

// mergeSketches folds every sketch of a sketch output into dst by
// group: merged into the group's sketch, or cloned as its first, since
// outputs share their sketches. Sketches of another family are skipped.
func mergeSketches[S sketch.Sketch](out *MapOutput, dst map[string]S) {
	out.EachSketch(func(group string, s sketch.Sketch) {
		t, ok := s.(S)
		if !ok {
			return
		}
		if cur, ok := dst[group]; ok {
			//lint:ignore errcheck same-plan sketches cannot mismatch
			_ = cur.Merge(t)
			return
		}
		dst[group] = t.Clone().(S)
	})
}

// eachElement calls fn for every composite pair of the EmitElement
// fallback, raw or combined, split into group and element, with its
// weight (a combined pair's sum).
func eachElement(out *MapOutput, fn func(group, element string, w float64)) {
	out.EachPair(func(key string, v float64) {
		group, element := SplitElement(key)
		fn(group, element, v)
	})
	out.EachCombined(func(key string, rs stats.RunningStat) {
		group, element := SplitElement(key)
		fn(group, element, rs.Sum)
	})
}

// memberSets is the exact fallback of DistinctReduce and
// MembershipReduce: each group's set of elements.
type memberSets map[string]map[string]struct{}

// add folds the composite pairs of an output into the sets.
func (m memberSets) add(out *MapOutput) {
	eachElement(out, func(group, element string, _ float64) {
		set := m[group]
		if set == nil {
			set = make(map[string]struct{})
			m[group] = set
		}
		set[element] = struct{}{}
	})
}

// appendEstimates appends every group's distinct count, widened for
// coverage cov and exact only at full coverage.
func (m memberSets) appendEstimates(out []KeyEstimate, cov, confidence float64) []KeyEstimate {
	for group, set := range m {
		est := stats.Estimate{Value: float64(len(set)), Conf: confidence}
		out = append(out, KeyEstimate{Key: group, Est: widenForSampling(est, cov), Exact: cov >= 1})
	}
	return out
}

// zNormal is the large-df t critical value used for sketch noise
// (sketch error is not a t-statistic; the normal approximation is the
// standard HLL/linear-counting error story).
func zNormal(confidence float64) float64 {
	return stats.TwoSidedT(confidence, 1e9)
}

// widenForSampling adds the worst-case unseen-distinct contribution to
// a distinct-style estimate: with coverage c, the unseen units number
// at most V·(1/c − 1) new elements. exact stays true only at full
// coverage.
func widenForSampling(est stats.Estimate, cov float64) stats.Estimate {
	if cov >= 1 {
		return est
	}
	if cov <= 0 {
		est.Err = math.NaN()
		est.StdErr = math.NaN()
		return est
	}
	est.Err += est.Value * (1/cov - 1)
	return est
}

// --- DistinctReduce ----------------------------------------------------

// DistinctReduce counts distinct elements per group. Sketch outputs
// merge HLLs (estimate error: the HLL relative standard error at the
// job confidence); composite pairs are counted exactly. Either way the
// estimate widens for sampling per the file comment.
type DistinctReduce struct {
	tally Tally
	hll   map[string]*sketch.HLL
	exact memberSets
}

// NewDistinctReduce builds a DistinctReduce; use with
// Job.Sketch{Kind: SketchDistinct} or the pairs fallback.
func NewDistinctReduce() *DistinctReduce {
	return &DistinctReduce{
		hll:   make(map[string]*sketch.HLL),
		exact: make(memberSets),
	}
}

// Consume implements ReduceLogic.
func (r *DistinctReduce) Consume(out *MapOutput) {
	r.tally.Add(out)
	if out.IsSketch() {
		mergeSketches(out, r.hll)
		return
	}
	r.exact.add(out)
}

// Estimates implements ReduceLogic.
func (r *DistinctReduce) Estimates(view EstimateView) []KeyEstimate { return r.Finalize(view) }

// Finalize implements ReduceLogic.
func (r *DistinctReduce) Finalize(view EstimateView) []KeyEstimate {
	cov := coverage(&r.tally, view)
	z := zNormal(view.Confidence)
	out := make([]KeyEstimate, 0, len(r.hll)+len(r.exact))
	for group, h := range r.hll {
		v := h.Estimate()
		est := stats.Estimate{
			Value:  v,
			StdErr: v * h.RelStdErr(),
			DF:     math.Inf(1),
			Conf:   view.Confidence,
		}
		est.Err = z * est.StdErr
		out = append(out, KeyEstimate{Key: group, Est: widenForSampling(est, cov)})
	}
	out = r.exact.appendEstimates(out, cov, view.Confidence)
	SortByKey(out)
	return out
}

// --- TopKReduce --------------------------------------------------------

// TopKReduce reports the k heaviest elements per group, one output key
// per (group, element) as "group/element" (bare "element" for the
// empty group). Sketch outputs merge TopK sketches; counts and the
// CMS ε·W overestimation bound scale by the two-stage expansion
// factor under sampling. Composite pairs are tallied exactly.
type TopKReduce struct {
	k     int
	tally Tally
	sk    map[string]*sketch.TopK
	exact map[string]map[string]float64
}

// NewTopKReduce builds a TopKReduce returning the top k elements per
// group; use with Job.Sketch{Kind: SketchTopK, K: k} or the pairs
// fallback.
func NewTopKReduce(k int) *TopKReduce {
	if k < 1 {
		k = 1
	}
	return &TopKReduce{
		k:     k,
		sk:    make(map[string]*sketch.TopK),
		exact: make(map[string]map[string]float64),
	}
}

// Consume implements ReduceLogic.
func (r *TopKReduce) Consume(out *MapOutput) {
	r.tally.Add(out)
	if out.IsSketch() {
		mergeSketches(out, r.sk)
		return
	}
	eachElement(out, func(group, element string, w float64) {
		m := r.exact[group]
		if m == nil {
			m = make(map[string]float64)
			r.exact[group] = m
		}
		m[element] += w
	})
}

// outKey joins group and element for the final output.
func outKey(group, element string) string {
	if group == "" {
		return element
	}
	return group + "/" + element
}

// Estimates implements ReduceLogic.
func (r *TopKReduce) Estimates(view EstimateView) []KeyEstimate { return r.Finalize(view) }

// Finalize implements ReduceLogic.
func (r *TopKReduce) Finalize(view EstimateView) []KeyEstimate {
	scale := expansion(&r.tally, view)
	complete := r.tally.Exact(view)
	var out []KeyEstimate
	for group, t := range r.sk {
		cms := t.CMS()
		bound := cms.ErrBound()
		conf := view.Confidence
		if c := cms.Confidence(); c < conf {
			conf = c
		}
		for _, ent := range t.Top(r.k) {
			est := stats.Estimate{
				Value: scale * float64(ent.Count),
				Err:   scale * bound,
				DF:    math.Inf(1),
				Conf:  conf,
			}
			out = append(out, KeyEstimate{Key: outKey(group, ent.Key), Est: est})
		}
	}
	for group, counts := range r.exact {
		type kc struct {
			e string
			c float64
		}
		all := make([]kc, 0, len(counts))
		for e, c := range counts {
			all = append(all, kc{e, c})
		}
		sort.Slice(all, func(i, j int) bool {
			//lint:ignore nofloateq tallies are sums of integer weights; exact ties must fall through to the key order for deterministic output
			if all[i].c != all[j].c {
				return all[i].c > all[j].c
			}
			return all[i].e < all[j].e
		})
		if len(all) > r.k {
			all = all[:r.k]
		}
		for _, ent := range all {
			est := stats.Estimate{Value: scale * ent.c, Conf: view.Confidence}
			if !complete {
				// Exact tallies of a sample extrapolate but carry no
				// per-element bound: which elements were missed is
				// unknown.
				est.Err = math.NaN()
				est.StdErr = math.NaN()
			}
			out = append(out, KeyEstimate{Key: outKey(group, ent.e), Est: est, Exact: complete})
		}
	}
	SortByKey(out)
	return out
}

// --- MembershipReduce --------------------------------------------------

// MembershipReduce answers membership per group: the output value per
// group is the estimated distinct member count (linear counting over
// the Bloom bit load for sketches, exact set size for pairs).
type MembershipReduce struct {
	tally Tally
	bloom map[string]*sketch.Bloom
	exact memberSets
}

// NewMembershipReduce builds a MembershipReduce; use with
// Job.Sketch{Kind: SketchMembership} or the pairs fallback.
func NewMembershipReduce() *MembershipReduce {
	return &MembershipReduce{
		bloom: make(map[string]*sketch.Bloom),
		exact: make(memberSets),
	}
}

// Consume implements ReduceLogic.
func (r *MembershipReduce) Consume(out *MapOutput) {
	r.tally.Add(out)
	if out.IsSketch() {
		mergeSketches(out, r.bloom)
		return
	}
	r.exact.add(out)
}

// Estimates implements ReduceLogic.
func (r *MembershipReduce) Estimates(view EstimateView) []KeyEstimate { return r.Finalize(view) }

// Finalize implements ReduceLogic.
func (r *MembershipReduce) Finalize(view EstimateView) []KeyEstimate {
	cov := coverage(&r.tally, view)
	z := zNormal(view.Confidence)
	out := make([]KeyEstimate, 0, len(r.bloom)+len(r.exact))
	for group, b := range r.bloom {
		v := b.CountEstimate()
		est := stats.Estimate{
			Value:  v,
			StdErr: b.CountStdErr(),
			DF:     math.Inf(1),
			Conf:   view.Confidence,
		}
		est.Err = z * est.StdErr
		out = append(out, KeyEstimate{Key: group, Est: widenForSampling(est, cov)})
	}
	out = r.exact.appendEstimates(out, cov, view.Confidence)
	SortByKey(out)
	return out
}
