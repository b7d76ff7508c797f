package approx

import (
	"math"
	"strings"
	"testing"

	"approxhadoop/internal/stats"
)

// TestApproximationSettings is the contract's table: which mode each
// spec selects, and which field an out-of-range spec is rejected for.
// The parent column says what the three entry points this type
// replaced (the facade's Submit, the job service's spec and approxrun's
// flags) did with the same values: most rejected rows ran there,
// silently clamped or relabelled.
func TestApproximationSettings(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		a      Approximation
		want   string // controller name prefix, "" for precise, or "error: <field>"
		parent string
	}{
		{Approximation{}, "", "precise"},
		{Approximation{SampleRatio: 1}, "", "precise"},
		{Approximation{SampleRatio: 0.5, DropRatio: 0.25}, "static", "static"},
		{Approximation{DropRatio: 0.5, Extreme: true}, "static", "static"},
		{Approximation{TargetError: 0.05}, "target-error(", "target"},
		{Approximation{TargetError: 0.05, Extreme: true}, "target-error-gev", "GEV"},
		{Approximation{AbsoluteError: 80, StrictPerKey: true}, "target-error(", "target"},
		{Approximation{Deadline: 30, BestEffort: true}, "deadline-slo", "deadline"},
		{Approximation{SampleRatio: 0.5, TargetError: 0.01}, "error: select different modes", "approxrun ran the target, Submit refused"},
		{Approximation{DropRatio: 0.5, Deadline: 30}, "error: select different modes", "the service ran whichever its controller key named"},
		{Approximation{SampleRatio: 0.5, Confidence: 1.5}, "error: confidence", "ran, intervals labelled 95%"},
		{Approximation{Confidence: -0.9}, "error: confidence", "ran, intervals labelled 95%"},
		{Approximation{Confidence: 1}, "error: confidence", "ran, intervals labelled 95%"},
		{Approximation{SampleRatio: 7}, "error: sampleRatio", "ran precisely (NewStatic clamps)"},
		{Approximation{SampleRatio: -0.5}, "error: sampleRatio", "ran precisely (NewStatic clamps)"},
		{Approximation{DropRatio: -3}, "error: dropRatio", "ran precisely (NewStatic clamps)"},
		{Approximation{DropRatio: 1}, "error: dropRatio", "dropped every map"},
		{Approximation{TargetError: -0.1}, "error: target", "the service refused, the rest ran precisely"},
		{Approximation{TargetError: inf}, "error: target", "ran a target job no plan could miss"},
		{Approximation{AbsoluteError: math.NaN()}, "error: absoluteError", "ran precisely"},
		{Approximation{Deadline: -1}, "error: deadline", "the service refused (only it had deadlines)"},
		{Approximation{Deadline: inf}, "error: deadline", "ran with no deadline to meet"},
		{Approximation{TargetError: 0.05, Pilot: true, PilotRatio: 2}, "error: pilotRatio", "piloted at 0.01"},
		{Approximation{TargetError: 0.05, Pilot: true, PilotRatio: -1}, "error: pilotRatio", "piloted at 0.01"},
	}
	for _, c := range cases {
		set, err := c.a.Settings()
		got := ""
		switch {
		case err != nil:
			got = "error: " + err.Error()
		case set.Controller != nil:
			got = set.Controller.Name()
		}
		field, isErr := strings.CutPrefix(c.want, "error: ")
		if isErr && (err == nil || !strings.Contains(err.Error(), field)) || !isErr && !strings.HasPrefix(got, c.want) || c.want == "" && got != "" {
			t.Errorf("%+v: got %q, want %q (the parent: %s)", c.a, got, c.want, c.parent)
		}
	}
}

// TestSettingsJobLevel: a deadline carries the map phase's hard stop
// and, best-effort, the degrade switch; confidence reaches every mode.
func TestSettingsJobLevel(t *testing.T) {
	set, err := Approximation{Deadline: 30, BestEffort: true, Confidence: 0.9}.Settings()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(set.JobDeadline, 30, 0) || !set.DegradeToDrop || !stats.AlmostEqual(set.Confidence, 0.9, 0) {
		t.Errorf("deadline settings %+v", set)
	}
	set, err = Approximation{Deadline: 30}.Settings()
	if err != nil || set.DegradeToDrop {
		t.Errorf("a strict deadline degrades: %+v %v", set, err)
	}
	set, err = Approximation{SampleRatio: 0.5, BestEffort: true}.Settings()
	if err != nil || set.JobDeadline != 0 || set.DegradeToDrop {
		t.Errorf("bestEffort outside deadline mode reached the job: %+v %v", set, err)
	}
}
