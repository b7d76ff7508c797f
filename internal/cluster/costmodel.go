package cluster

// TaskMeasure carries what a map task actually did, so a cost model can
// attribute a virtual duration: total record count of its block (M),
// records actually processed after sampling (m), raw bytes scanned, and
// the compute seconds the in-process execution was charged by the
// job's meter (deterministic modeled seconds by default, host
// wall-clock under a calibration meter), split into the time spent
// reading/parsing the block and the time spent inside the user's map
// function.
type TaskMeasure struct {
	Items     int64   // M: records in the block
	Processed int64   // m: records passed to map()
	Bytes     int64   // raw bytes scanned
	ReadSecs  float64 // metered seconds spent reading/parsing
	ProcSecs  float64 // metered seconds spent in map()
	SetupSecs float64 // metered fixed setup seconds
}

// RealSecs returns the total metered compute time.
func (t TaskMeasure) RealSecs() float64 { return t.SetupSecs + t.ReadSecs + t.ProcSecs }

// CostModel converts a task's measurements into virtual seconds on the
// simulated cluster, and exposes the per-item time parameters the
// target-error controller needs to model t_map(M, m) = t0 + M*tr + m*tp
// (the paper's Equation 5).
type CostModel interface {
	// MapDuration returns the virtual duration of a map task.
	MapDuration(m TaskMeasure) float64
	// ReduceDuration returns the virtual seconds to reduce-process
	// `pairs` intermediate pairs, given measured seconds.
	ReduceDuration(pairs int64, measuredSecs float64) float64
	// Params estimates (t0, tr, tp) from completed task measurements;
	// the controller plugs these into the optimization of Section 4.4.
	Params(completed []TaskMeasure) (t0, tr, tp float64)
}

// MeasuredCost attributes each task its metered execution time
// multiplied by Scale. With Scale == 1 virtual time equals the charged
// compute time of a single-threaded execution, spread across the
// simulated cluster's slots.
type MeasuredCost struct {
	Scale float64 // defaults to 1 when zero
}

func (c MeasuredCost) scale() float64 {
	if c.Scale == 0 {
		return 1
	}
	return c.Scale
}

// MapDuration implements CostModel.
func (c MeasuredCost) MapDuration(m TaskMeasure) float64 {
	return m.RealSecs() * c.scale()
}

// ReduceDuration implements CostModel.
func (c MeasuredCost) ReduceDuration(pairs int64, measuredSecs float64) float64 {
	return measuredSecs * c.scale()
}

// Params implements CostModel by averaging per-item measured times.
func (c MeasuredCost) Params(completed []TaskMeasure) (t0, tr, tp float64) {
	if len(completed) == 0 {
		return 0, 0, 0
	}
	var sumSetup, sumRead, sumProc float64
	var items, proc int64
	for _, t := range completed {
		sumSetup += t.SetupSecs
		sumRead += t.ReadSecs
		sumProc += t.ProcSecs
		items += t.Items
		proc += t.Processed
	}
	t0 = sumSetup / float64(len(completed)) * c.scale()
	if items > 0 {
		tr = sumRead / float64(items) * c.scale()
	}
	if proc > 0 {
		tp = sumProc / float64(proc) * c.scale()
	}
	return t0, tr, tp
}

// AnalyticCost models task duration with fixed constants, following
// Equation 5: t_map(M, m) = T0 + M*Tr + m*Tp. It decouples simulated
// runtimes from the host machine, producing paper-scale numbers: the
// defaults are calibrated so a 161-map WikiLength-style job lands near
// the paper's ~180 s precise runtime on the default cluster.
type AnalyticCost struct {
	T0        float64 // seconds of fixed per-task setup
	Tr        float64 // seconds to read one record
	Tp        float64 // seconds to process one record
	TrPerByte float64 // optional per-byte read cost added to Tr-based time
	RedPerK   float64 // reduce seconds per 1000 pairs
}

// PaperCost returns the analytic cost model calibrated so the default
// synthetic WikiLength job (161 maps over 80 slots) lands near the
// paper's ~180 s precise runtime.
func PaperCost() AnalyticCost {
	return AnalyticCost{T0: 1.5, Tr: 0.006, Tp: 0.024, RedPerK: 0.02}
}

// MapDuration implements CostModel.
func (c AnalyticCost) MapDuration(m TaskMeasure) float64 {
	return c.T0 + float64(m.Items)*c.Tr + float64(m.Processed)*c.Tp + float64(m.Bytes)*c.TrPerByte
}

// ReduceDuration implements CostModel.
func (c AnalyticCost) ReduceDuration(pairs int64, measuredSecs float64) float64 {
	return float64(pairs) / 1000 * c.RedPerK
}

// Params implements CostModel.
func (c AnalyticCost) Params(completed []TaskMeasure) (t0, tr, tp float64) {
	// The analytic model's read cost may include a per-byte term;
	// fold it into tr using the observed bytes-per-item.
	tr = c.Tr
	var items, bytes int64
	for _, t := range completed {
		items += t.Items
		bytes += t.Bytes
	}
	if items > 0 {
		tr += c.TrPerByte * float64(bytes) / float64(items)
	}
	return c.T0, tr, c.Tp
}
