package harness

import (
	"fmt"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/mapreduce"
)

// KeySpaceRow reports the missed-key behavior of one sampling ratio.
type KeySpaceRow struct {
	Sample          float64
	TrueKeys        int     // keys in the precise output
	ObservedKeys    int     // keys in the approximate output
	ChaoEstimate    float64 // extrapolated distinct-key count
	ChaoCI          float64
	MissingBound    float64 // 0-plus-bound for any unobserved key
	WorstSeenBound  float64 // widest absolute bound among observed keys
	MissedKeys      int     // keys the sample missed entirely
	MissedOverBound int     // missed keys whose true value exceeds the bound
}

// KeySpace quantifies Section 3.1's missed-intermediate-keys
// limitation and the repository's two mitigations on Page Popularity:
// sampling misses rare pages; the Chao estimator recovers the key-space
// size; and the missing-key bound is tiny next to observed-key bounds
// (the paper's ±197 vs ±33,408 WikiLength observation).
func (r *Runner) KeySpace() ([]KeySpaceRow, error) {
	input := r.input(apps.AccessLog)
	precise, err := r.runJob(apps.PagePopularity(input, r.opts(nil, 0, false)))
	if err != nil {
		return nil, err
	}
	trueKeys := map[string]float64{}
	for _, o := range precise.Outputs {
		trueKeys[o.Key] = o.Est.Value
	}

	var out []KeySpaceRow
	rows := [][]string{}
	for _, ratio := range []float64{0.5, 0.1, 0.01} {
		// Run with direct access to the reducer instances so the
		// key-space estimators can be interrogated afterwards.
		var reducers []*approx.MultiStageReducer
		job := apps.PagePopularity(input, r.opts(approx.NewStatic(ratio, 0), 0, false))
		job.NewReduce = func(int) mapreduce.ReduceLogic {
			m := approx.NewMultiStageReducer(approx.OpSum)
			reducers = append(reducers, m)
			return m
		}
		res, err := r.runJob(job)
		if err != nil {
			return nil, err
		}
		view := mapreduce.EstimateView{
			TotalMaps:  res.Counters.MapsTotal,
			Dropped:    res.Counters.MapsDropped + res.Counters.MapsKilled,
			Confidence: 0.95,
		}
		row := KeySpaceRow{Sample: ratio, TrueKeys: len(trueKeys), ObservedKeys: len(res.Outputs)}
		var chaoSum, chaoCI, missing float64
		for _, m := range reducers {
			chao := m.DistinctKeys(view)
			chaoSum += chao.Value
			chaoCI += chao.Err
			if b := m.MissingKeyBound(view); b.Err > missing {
				missing = b.Err
			}
		}
		row.ChaoEstimate = chaoSum
		row.ChaoCI = chaoCI
		row.MissingBound = missing
		for _, o := range res.Outputs {
			if o.Est.Err > row.WorstSeenBound {
				row.WorstSeenBound = o.Est.Err
			}
		}
		// Validate the bound: it is a per-key 95% statement, so over
		// many missed keys a small fraction may exceed it; count them.
		seen := map[string]bool{}
		for _, o := range res.Outputs {
			seen[o.Key] = true
		}
		for k, v := range trueKeys {
			if !seen[k] {
				row.MissedKeys++
				if v > row.MissingBound {
					row.MissedOverBound++
				}
			}
		}
		out = append(out, row)
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", ratio*100),
			fmt.Sprintf("%d", row.TrueKeys),
			fmt.Sprintf("%d", row.ObservedKeys),
			fmt.Sprintf("%.0f ± %.0f", row.ChaoEstimate, row.ChaoCI),
			fmt.Sprintf("±%.1f", row.MissingBound),
			fmt.Sprintf("±%.1f", row.WorstSeenBound),
			fmt.Sprintf("%d/%d", row.MissedOverBound, row.MissedKeys),
		})
	}
	r.printPoints("Key space: missed keys, Chao extrapolation, zero-plus-bound",
		[]string{"Sampling", "TrueKeys", "Observed", "Chao distinct", "MissingBound", "WorstSeenBound", "OverBound/Missed"},
		rows)
	return out, nil
}
