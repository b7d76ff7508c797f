// Package stats implements the statistical machinery that ApproxHadoop
// relies on to turn approximate MapReduce executions into estimates with
// rigorous error bounds.
//
// It provides:
//
//   - Student-t and standard-normal quantiles (via the regularized
//     incomplete beta function), used for confidence intervals,
//   - multi-stage (two- and three-stage) sampling estimators for the
//     aggregation reducers sum, count, average and ratio (Lohr,
//     "Sampling: Design and Analysis"): a per-key ClusterSums read
//     under the Design every key shares, whose Variance is the
//     paper's Equation 3,
//   - the Generalized Extreme Value (GEV) distribution with maximum
//     likelihood fitting (Nelder-Mead), Block Minima/Maxima transforms
//     and delta-method confidence intervals, used for min/max reducers
//     (Coles, "An Introduction to Statistical Modeling of Extreme
//     Values"),
//   - small numerical helpers: descriptive statistics, a Nelder-Mead
//     optimizer, dense linear solves for the observed information
//     matrix, and seeded random-variate generators for workloads.
//
// Everything is pure Go with no dependencies outside the standard
// library, and all randomized routines accept explicit *rand.Rand
// sources so simulations stay deterministic. NewRand makes them: its
// stream is math/rand's, seeded lazily so a source costs what it draws.
// NewSource is the same source without the *rand.Rand, for callers that
// draw only Int63, Int63n, Uint64 or Float64.
package stats
