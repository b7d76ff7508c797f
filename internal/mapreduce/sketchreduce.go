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

// sampleTally accumulates the per-cluster unit counts every sketch
// reducer needs to compose sampling error into its estimates.
type sampleTally struct {
	n       int     // clusters consumed
	sumM    float64 // Σ M_i over consumed clusters
	summ    float64 // Σ m_i over consumed clusters
	sampled bool    // any cluster had m_i < M_i
}

func (s *sampleTally) consume(out *MapOutput) {
	s.n++
	s.sumM += float64(out.Items)
	s.summ += float64(out.Sampled)
	if out.Sampled < out.Items {
		s.sampled = true
	}
}

// complete reports whether the reduce saw every unit of every cluster.
func (s *sampleTally) complete(view EstimateView) bool {
	return !s.sampled && view.Dropped == 0 && s.n >= view.TotalMaps
}

// coverage estimates the fraction of population units the reduce saw:
// Σm over the consumed clusters divided by the extrapolated population
// total N·(ΣM/n). Returns 1 when nothing was missed.
func (s *sampleTally) coverage(view EstimateView) float64 {
	if s.complete(view) {
		return 1
	}
	if s.n == 0 || s.sumM <= 0 || s.summ <= 0 {
		return 0
	}
	pop := s.sumM / float64(s.n) * float64(view.TotalMaps)
	cov := s.summ / pop
	if cov > 1 {
		cov = 1
	}
	return cov
}

// scale returns the two-stage expansion factor (N/n)·(ΣM/Σm) for
// additive quantities (counts of occurrences), 1 when complete.
func (s *sampleTally) scale(view EstimateView) float64 {
	if s.complete(view) {
		return 1
	}
	if s.n == 0 || s.summ <= 0 {
		return math.NaN()
	}
	return float64(view.TotalMaps) / float64(s.n) * s.sumM / s.summ
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
	tally sampleTally
	hll   map[string]*sketch.HLL
	exact map[string]map[string]struct{}
}

// NewDistinctReduce builds a DistinctReduce; use with
// Job.Sketch{Kind: SketchDistinct} or the pairs fallback.
func NewDistinctReduce() *DistinctReduce {
	return &DistinctReduce{
		hll:   make(map[string]*sketch.HLL),
		exact: make(map[string]map[string]struct{}),
	}
}

// Consume implements ReduceLogic.
func (r *DistinctReduce) Consume(out *MapOutput) {
	r.tally.consume(out)
	if out.IsSketch() {
		out.EachSketch(func(group string, s sketch.Sketch) {
			h, ok := s.(*sketch.HLL)
			if !ok {
				return
			}
			if cur, ok := r.hll[group]; ok {
				//lint:ignore errcheck same-plan sketches cannot mismatch
				_ = cur.Merge(h)
				return
			}
			r.hll[group] = h.Clone().(*sketch.HLL)
		})
		return
	}
	out.EachPair(func(key string, _ float64) {
		group, element := SplitElement(key)
		set := r.exact[group]
		if set == nil {
			set = make(map[string]struct{})
			r.exact[group] = set
		}
		set[element] = struct{}{}
	})
	out.EachCombined(func(key string, _ stats.RunningStat) {
		group, element := SplitElement(key)
		set := r.exact[group]
		if set == nil {
			set = make(map[string]struct{})
			r.exact[group] = set
		}
		set[element] = struct{}{}
	})
}

// Estimates implements ReduceLogic.
func (r *DistinctReduce) Estimates(view EstimateView) []KeyEstimate { return r.Finalize(view) }

// Finalize implements ReduceLogic.
func (r *DistinctReduce) Finalize(view EstimateView) []KeyEstimate {
	cov := r.tally.coverage(view)
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
	for group, set := range r.exact {
		est := stats.Estimate{Value: float64(len(set)), Conf: view.Confidence}
		ke := KeyEstimate{Key: group, Est: widenForSampling(est, cov)}
		ke.Exact = cov >= 1
		out = append(out, ke)
	}
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
	tally sampleTally
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
	r.tally.consume(out)
	if out.IsSketch() {
		out.EachSketch(func(group string, s sketch.Sketch) {
			t, ok := s.(*sketch.TopK)
			if !ok {
				return
			}
			if cur, ok := r.sk[group]; ok {
				//lint:ignore errcheck same-plan sketches cannot mismatch
				_ = cur.Merge(t)
				return
			}
			r.sk[group] = t.Clone().(*sketch.TopK)
		})
		return
	}
	add := func(key string, w float64) {
		group, element := SplitElement(key)
		m := r.exact[group]
		if m == nil {
			m = make(map[string]float64)
			r.exact[group] = m
		}
		m[element] += w
	}
	out.EachPair(add)
	out.EachCombined(func(key string, rs stats.RunningStat) { add(key, rs.Sum) })
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
	scale := r.tally.scale(view)
	complete := r.tally.complete(view)
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
// the Bloom bit load for sketches, exact set size for pairs), and
// Contains answers point queries after the job — definitive negatives,
// positives correct up to the filter's FPR.
type MembershipReduce struct {
	tally sampleTally
	bloom map[string]*sketch.Bloom
	exact map[string]map[string]struct{}
}

// NewMembershipReduce builds a MembershipReduce; use with
// Job.Sketch{Kind: SketchMembership} or the pairs fallback.
func NewMembershipReduce() *MembershipReduce {
	return &MembershipReduce{
		bloom: make(map[string]*sketch.Bloom),
		exact: make(map[string]map[string]struct{}),
	}
}

// Consume implements ReduceLogic.
func (r *MembershipReduce) Consume(out *MapOutput) {
	r.tally.consume(out)
	if out.IsSketch() {
		out.EachSketch(func(group string, s sketch.Sketch) {
			b, ok := s.(*sketch.Bloom)
			if !ok {
				return
			}
			if cur, ok := r.bloom[group]; ok {
				//lint:ignore errcheck same-plan sketches cannot mismatch
				_ = cur.Merge(b)
				return
			}
			r.bloom[group] = b.Clone().(*sketch.Bloom)
		})
		return
	}
	add := func(key string, _ float64) {
		group, element := SplitElement(key)
		set := r.exact[group]
		if set == nil {
			set = make(map[string]struct{})
			r.exact[group] = set
		}
		set[element] = struct{}{}
	}
	out.EachPair(add)
	out.EachCombined(func(key string, rs stats.RunningStat) { add(key, rs.Sum) })
}

// Contains reports whether element was observed in group, with the
// false-positive probability of a true answer (0 for exact sets; a
// sampled job can also have missed the element entirely, which this
// does not account for).
func (r *MembershipReduce) Contains(group, element string) (bool, float64) {
	if b, ok := r.bloom[group]; ok {
		if !b.Contains(element) {
			return false, 0
		}
		return true, b.FPR()
	}
	if set, ok := r.exact[group]; ok {
		_, in := set[element]
		return in, 0
	}
	return false, 0
}

// Estimates implements ReduceLogic.
func (r *MembershipReduce) Estimates(view EstimateView) []KeyEstimate { return r.Finalize(view) }

// Finalize implements ReduceLogic.
func (r *MembershipReduce) Finalize(view EstimateView) []KeyEstimate {
	cov := r.tally.coverage(view)
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
	for group, set := range r.exact {
		est := stats.Estimate{Value: float64(len(set)), Conf: view.Confidence}
		ke := KeyEstimate{Key: group, Est: widenForSampling(est, cov)}
		ke.Exact = cov >= 1
		out = append(out, ke)
	}
	SortByKey(out)
	return out
}
