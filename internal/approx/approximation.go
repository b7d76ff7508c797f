package approx

import (
	"errors"
	"fmt"
	"math"

	"approxhadoop/internal/mapreduce"
)

// Approximation is the job-submission contract (Section 4.2): explicit
// dropping and/or sampling ratios, for which the framework computes
// error bounds; a target error bound, for which it chooses the ratios
// online; or a deadline, for which it chooses them to finish in time.
// The fields that are set select the mode; the zero value runs
// precisely. The JSON keys are the job service's spec keys.
type Approximation struct {
	SampleRatio float64 `json:"sampleRatio,omitempty"` // fraction of input items to process, (0, 1]
	DropRatio   float64 `json:"dropRatio,omitempty"`   // fraction of map tasks to drop, [0, 1)

	TargetError   float64 `json:"target,omitempty"`        // relative bound, e.g. 0.01 for ±1%
	AbsoluteError float64 `json:"absoluteError,omitempty"` // absolute half-width bound
	Extreme       bool    `json:"extreme,omitempty"`       // min/max job: use the GEV controller
	StrictPerKey  bool    `json:"strict,omitempty"`        // bound every key, not just the worst-absolute one

	Deadline   float64 `json:"deadline,omitempty"`   // map-phase budget in virtual seconds
	BestEffort bool    `json:"bestEffort,omitempty"` // degrade an overrun to drops instead of failing

	// Pilot starts a target job with a cheap pilot wave; PilotRatio
	// (default 0.01) and PilotTasks (default 1/4 of the map slots) size
	// the pilot wave of target and deadline jobs.
	Pilot      bool    `json:"pilot,omitempty"`
	PilotRatio float64 `json:"pilotRatio,omitempty"`
	PilotTasks int     `json:"pilotTasks,omitempty"`

	Confidence float64 `json:"confidence,omitempty"` // interval level in every mode (default 0.95)
}

// Settings is what an Approximation asks of one job: its controller
// (nil runs precisely) and the job-level settings that go with it.
type Settings struct {
	Controller    mapreduce.Controller
	Confidence    float64 // 0 keeps the job's default
	JobDeadline   float64 // RetryPolicy.JobDeadline, the map phase's hard stop
	DegradeToDrop bool
}

// Apply sets the job-level settings on job. The controller reaches the
// job through its builder (apps.Options) or Job.Controller.
func (s Settings) Apply(job *mapreduce.Job) {
	if s.Confidence > 0 {
		job.Confidence = s.Confidence
	}
	if s.JobDeadline > 0 {
		job.Retry.JobDeadline = s.JobDeadline
	}
	job.DegradeToDrop = job.DegradeToDrop || s.DegradeToDrop
}

// Settings validates the spec, infers its mode from the fields that
// are set (mixed modes are an error) and assembles a fresh controller:
// controllers are stateful, so call it once per job.
func (a Approximation) Settings() (Settings, error) {
	if err := a.validate(); err != nil {
		return Settings{}, err
	}
	ratios := a.DropRatio > 0 || (a.SampleRatio > 0 && a.SampleRatio < 1)
	target := a.TargetError > 0 || a.AbsoluteError > 0
	deadline := a.Deadline > 0
	if (ratios && target) || (ratios && deadline) || (target && deadline) {
		return Settings{}, errors.New("approx: sampleRatio/dropRatio, target/absoluteError and deadline select different modes; set one")
	}
	s := Settings{Confidence: a.Confidence}
	switch {
	case ratios:
		s.Controller = NewStatic(a.SampleRatio, a.DropRatio)
	case target && a.Extreme:
		s.Controller = &TargetErrorGEV{Target: a.TargetError, Absolute: a.AbsoluteError}
	case target:
		s.Controller = &TargetError{Target: a.TargetError, Absolute: a.AbsoluteError, Strict: a.StrictPerKey,
			Pilot: a.Pilot, PilotRatio: a.PilotRatio, PilotTasks: a.PilotTasks}
	case deadline:
		// The controller plans toward planSlack*Deadline; the map-phase
		// deadline is the hard stop if the plan mispredicts, failing a
		// strict job and degrading a best-effort one's unfinished tail
		// to statistically-bounded drops.
		s.Controller = &DeadlineSLO{Deadline: a.Deadline, BestEffort: a.BestEffort,
			PilotRatio: a.PilotRatio, PilotTasks: a.PilotTasks}
		s.JobDeadline, s.DegradeToDrop = a.Deadline, a.BestEffort
	}
	return s, nil
}

// validate rejects out-of-range fields, naming each by its JSON key.
func (a Approximation) validate() error {
	finite := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
	switch {
	case a.Confidence != 0 && !(a.Confidence > 0 && a.Confidence < 1):
		return fmt.Errorf("approx: confidence %g outside (0,1)", a.Confidence)
	case a.SampleRatio != 0 && !(a.SampleRatio > 0 && a.SampleRatio <= 1):
		return fmt.Errorf("approx: sampleRatio %g outside (0,1]", a.SampleRatio)
	case !(a.DropRatio >= 0 && a.DropRatio < 1):
		return fmt.Errorf("approx: dropRatio %g outside [0,1)", a.DropRatio)
	case !finite(a.TargetError):
		return fmt.Errorf("approx: target %g is not a finite bound >= 0", a.TargetError)
	case !finite(a.AbsoluteError):
		return fmt.Errorf("approx: absoluteError %g is not a finite bound >= 0", a.AbsoluteError)
	case !finite(a.Deadline):
		return fmt.Errorf("approx: deadline %g is not a finite time >= 0", a.Deadline)
	case a.PilotRatio != 0 && !(a.PilotRatio > 0 && a.PilotRatio <= 1):
		return fmt.Errorf("approx: pilotRatio %g outside (0,1]", a.PilotRatio)
	}
	return nil
}
