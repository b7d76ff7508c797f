package cluster

import (
	"math"
	"testing"
)

func TestEnergyBreakdown(t *testing.T) {
	cfg := tinyConfig() // 2 servers x (2 map + 1 reduce slots)
	e := New(cfg)
	s0, s1 := e.Servers()[0], e.Servers()[1]
	// Server 0 busy 50s; server 1 asleep 50s.
	e.StartTask(s0, MapSlot, 50, nil)
	if err := e.Sleep(s1); err != nil {
		t.Fatal(err)
	}
	e.Run()
	b := e.EnergyBreakdown()
	// s0: 1 of 3 slots busy -> 60 + 90/3 = 90 W * 50 s.
	if math.Abs(b.BusyJ-90*50) > 1e-9 {
		t.Errorf("BusyJ = %v, want %v", b.BusyJ, 90*50.0)
	}
	if math.Abs(b.SleepJ-3*50) > 1e-9 {
		t.Errorf("SleepJ = %v, want %v", b.SleepJ, 3*50.0)
	}
	if b.IdleJ != 0 {
		t.Errorf("IdleJ = %v, want 0", b.IdleJ)
	}
	if total := b.BusyJ + b.IdleJ + b.SleepJ; math.Abs(total-e.EnergyJoules()) > 1e-9 {
		t.Errorf("breakdown %v != total %v", total, e.EnergyJoules())
	}
}

func TestEnergyBreakdownIdle(t *testing.T) {
	e := New(tinyConfig())
	e.At(10, func() {})
	e.Run()
	b := e.EnergyBreakdown()
	if b.BusyJ != 0 || b.SleepJ != 0 {
		t.Errorf("idle-only run: %+v", b)
	}
	if math.Abs(b.IdleJ-2*60*10) > 1e-9 {
		t.Errorf("IdleJ = %v", b.IdleJ)
	}
}
