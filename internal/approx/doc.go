// Package approx is ApproxHadoop: the approximation layer on top of
// the mapreduce framework, implementing the paper's three mechanisms
// and its error-bound machinery.
//
// Mechanisms (Section 3):
//
//   - Input data sampling: ApproxTextInput parses a block like the
//     precise TextInputFormat but returns a random subset of records
//     at the requested sampling ratio (the paper's
//     ApproxTextInputFormat).
//   - Task dropping: the Static controller drops a user-specified
//     fraction of map tasks; target-error controllers drop and kill
//     tasks dynamically.
//   - User-defined approximation: PerTaskMappers selects between a
//     precise and an approximate map implementation per task.
//
// Error bounds:
//
//   - MultiStageReducer applies two-stage sampling theory to
//     aggregations (sum / count / average), tagging every cluster with
//     its map task ID and block unit counts, exactly as Section 4.4
//     describes. Sampled-away units count as implicit zeros.
//   - ExtremeValueReducer fits a Generalized Extreme Value
//     distribution (Block Minima/Maxima + MLE) to min/max
//     computations, per Section 3.2.
//
// Controllers (Section 4.2):
//
//   - Static: user-specified dropping and/or sampling ratios; bounds
//     are computed for the chosen ratios.
//   - TargetError: user-specified target error bound; after the first
//     wave (or a cheap pilot wave) it solves the optimization problem
//     of Section 4.4 — minimize remaining execution time
//     n2 * t_map(M, m) subject to the predicted confidence interval
//     staying within the target — and re-solves each wave.
//   - TargetErrorGEV: kills all outstanding maps the moment the
//     GEV-based interval meets the target (Section 4.5).
//
// Beyond the paper's core mechanisms, the package implements the
// mitigations Section 3.1 sketches for missed intermediate keys:
// MissingKeyBound bounds a key the sample never saw, and DistinctKeys
// extrapolates the total key-space size with the Chao1 estimator (the
// paper cites Haas et al. for this). The
// opt-in ThreeStageReducer estimates per-pair means when the
// population units are the intermediate pairs rather than the input
// items (three-stage sampling).
package approx
