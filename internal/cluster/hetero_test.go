package cluster

import (
	"testing"

	"approxhadoop/internal/stats"
)

func TestHeterogeneousSpeeds(t *testing.T) {
	cfg := tinyConfig()
	cfg.SpeedFactors = map[int]float64{0: 2, 1: 0.5}
	e := New(cfg)
	fast, slow := e.Servers()[0], e.Servers()[1]
	if !stats.AlmostEqual(fast.speed, 2, 1e-12) || !stats.AlmostEqual(slow.speed, 0.5, 1e-12) {
		t.Fatalf("speeds: %v %v", fast.speed, slow.speed)
	}
	var fastDone, slowDone float64
	e.StartTask(fast, MapSlot, 10, func(bool) { fastDone = e.Now() })
	e.StartTask(slow, MapSlot, 10, func(bool) { slowDone = e.Now() })
	e.Run()
	if !stats.AlmostEqual(fastDone, 5, 1e-12) {
		t.Errorf("2x server should finish a 10s task in 5s, got %v", fastDone)
	}
	if !stats.AlmostEqual(slowDone, 20, 1e-12) {
		t.Errorf("0.5x server should take 20s, got %v", slowDone)
	}
}

func TestHeterogeneousDefaultsToNominal(t *testing.T) {
	e := New(tinyConfig())
	for _, s := range e.Servers() {
		if !stats.AlmostEqual(s.speed, 1, 1e-12) {
			t.Errorf("default speed should be 1, got %v", s.speed)
		}
	}
	cfg := tinyConfig()
	cfg.SpeedFactors = map[int]float64{0: -3} // invalid: ignored
	if !stats.AlmostEqual(New(cfg).Servers()[0].speed, 1, 1e-12) {
		t.Error("non-positive factors should default to 1")
	}
}
