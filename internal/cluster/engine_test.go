package cluster

import (
	"math"
	"testing"

	"approxhadoop/internal/stats"
)

func tinyConfig() Config {
	c := DefaultConfig()
	c.Servers = 2
	c.MapSlotsPerServer = 2
	c.ReduceSlotsPerServer = 1
	return c
}

func TestEventOrdering(t *testing.T) {
	e := New(tinyConfig())
	var order []int
	e.At(5, func() { order = append(order, 2) })
	e.At(1, func() { order = append(order, 1) })
	e.At(5, func() { order = append(order, 3) }) // same time: FIFO
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if !stats.AlmostEqual(e.Now(), 5, 1e-12) {
		t.Errorf("Now = %v, want 5", e.Now())
	}
}

func TestAfterAndClamping(t *testing.T) {
	e := New(tinyConfig())
	fired := 0.0
	e.At(10, func() {
		e.At(3, func() { fired = e.Now() }) // in the past: clamps to now
	})
	e.Run()
	if !stats.AlmostEqual(fired, 10, 1e-12) {
		t.Errorf("past event should clamp to current time, fired at %v", fired)
	}

	e2 := New(tinyConfig())
	var at float64
	e2.At(2, func() { e2.After(3, func() { at = e2.Now() }) })
	e2.Run()
	if !stats.AlmostEqual(at, 5, 1e-12) {
		t.Errorf("After should be relative: %v", at)
	}
}

func TestTaskLifecycle(t *testing.T) {
	e := New(tinyConfig())
	srv := e.Servers()[0]
	finished := false
	task := e.StartTask(srv, MapSlot, 10, func(killed bool) {
		if killed {
			t.Error("task should not be killed")
		}
		finished = true
	})
	if srv.FreeSlots(MapSlot) != 1 {
		t.Errorf("slot not occupied")
	}
	if len(e.running) != 1 {
		t.Error("running count wrong")
	}
	e.Run()
	if !finished || !task.done || task.killed {
		t.Error("task should complete normally")
	}
	if srv.FreeSlots(MapSlot) != 2 {
		t.Error("slot not released")
	}
	if !stats.AlmostEqual(task.Finish, 10, 1e-12) {
		t.Errorf("finish time %v", task.Finish)
	}
}

func TestTaskKill(t *testing.T) {
	e := New(tinyConfig())
	srv := e.Servers()[0]
	var killedAt float64 = -1
	task := e.StartTask(srv, MapSlot, 100, func(killed bool) {
		if killed {
			killedAt = e.Now()
		}
	})
	e.At(30, func() { e.Kill(task) })
	e.Run()
	if !stats.AlmostEqual(killedAt, 30, 1e-12) {
		t.Errorf("killed at %v, want 30", killedAt)
	}
	if !stats.AlmostEqual(task.Finish, 30, 1e-12) {
		t.Errorf("finish adjusted to %v", task.Finish)
	}
	// Double kill is a no-op.
	e.Kill(task)
	if srv.FreeSlots(MapSlot) != 2 {
		t.Error("slot leak after kill")
	}
}

func TestStartTaskPanicsWithoutSlot(t *testing.T) {
	e := New(tinyConfig())
	srv := e.Servers()[0]
	e.StartTask(srv, ReduceSlot, 10, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic when no slot free")
		}
	}()
	e.StartTask(srv, ReduceSlot, 10, nil)
}

func TestEnergyIntegration(t *testing.T) {
	cfg := tinyConfig() // 2 servers, idle 60, peak 150
	e := New(cfg)
	// Nothing running for 100 s: 2 * 60 W * 100 s = 12000 J.
	e.At(100, func() {})
	e.Run()
	if got := e.EnergyJoules(); math.Abs(got-12000) > 1e-6 {
		t.Errorf("idle energy %v, want 12000", got)
	}
}

func TestEnergyWithLoadAndSleep(t *testing.T) {
	cfg := tinyConfig() // 2 map + 1 reduce slots per server
	e := New(cfg)
	s0, s1 := e.Servers()[0], e.Servers()[1]
	// Fully load server 0's three slots for 50 s -> peak 150 W.
	e.StartTask(s0, MapSlot, 50, nil)
	e.StartTask(s0, MapSlot, 50, nil)
	e.StartTask(s0, ReduceSlot, 50, nil)
	// Sleep server 1 the whole time -> 3 W.
	if err := e.Sleep(s1); err != nil {
		t.Fatal(err)
	}
	e.Run()
	want := 50 * (150.0 + 3.0)
	if got := e.EnergyJoules(); math.Abs(got-want) > 1e-6 {
		t.Errorf("energy %v, want %v", got, want)
	}
	if !s1.Asleep() || s1.FreeSlots(MapSlot) != 0 {
		t.Error("sleeping server should expose no slots")
	}
	e.Wake(s1)
	if s1.Asleep() || s1.FreeSlots(MapSlot) != 2 {
		t.Error("wake should restore slots")
	}
}

func TestSleepBusyServerFails(t *testing.T) {
	e := New(tinyConfig())
	s := e.Servers()[0]
	e.StartTask(s, MapSlot, 10, nil)
	if err := e.Sleep(s); err == nil {
		t.Error("sleeping a busy server should fail")
	}
}

func TestPartialUtilizationPower(t *testing.T) {
	cfg := tinyConfig()
	e := New(cfg)
	s := e.Servers()[0]
	// 1 of 3 slots busy: 60 + 90*(1/3) = 90 W; other server idle 60 W.
	e.StartTask(s, MapSlot, 30, nil)
	e.Run()
	want := 30 * (90.0 + 60.0)
	if got := e.EnergyJoules(); math.Abs(got-want) > 1e-6 {
		t.Errorf("energy %v, want %v", got, want)
	}
}

func TestStep(t *testing.T) {
	e := New(tinyConfig())
	count := 0
	e.At(1, func() { count++ })
	e.At(2, func() { count++ })
	if !e.Step() || count != 1 {
		t.Error("first step")
	}
	if !e.Step() || count != 2 {
		t.Error("second step")
	}
	if e.Step() {
		t.Error("empty queue should return false")
	}
}

func TestPerturbDuration(t *testing.T) {
	cfg := tinyConfig()
	cfg.StragglerProb = 1
	cfg.StragglerFactor = 3
	e := New(cfg)
	if got := e.PerturbDuration(10); !stats.AlmostEqual(got, 30, 1e-12) {
		t.Errorf("always-straggle should triple: %v", got)
	}
	cfg.StragglerProb = 0
	e2 := New(cfg)
	if got := e2.PerturbDuration(10); !stats.AlmostEqual(got, 10, 1e-12) {
		t.Errorf("no stragglers: %v", got)
	}
}

func TestConfigClamps(t *testing.T) {
	e := New(Config{Servers: 0, MapSlotsPerServer: 0, ReduceSlotsPerServer: -1})
	if len(e.Servers()) != 1 {
		t.Error("servers clamp")
	}
	if e.TotalSlots(MapSlot) != 1 || e.TotalSlots(ReduceSlot) != 0 {
		t.Errorf("slots: %d map, %d reduce", e.TotalSlots(MapSlot), e.TotalSlots(ReduceSlot))
	}
}

func TestSlotKindString(t *testing.T) {
	if MapSlot.String() != "map" || ReduceSlot.String() != "reduce" {
		t.Error("SlotKind strings")
	}
}

func TestDefaultAndAtomConfigs(t *testing.T) {
	d := DefaultConfig()
	if d.Servers != 10 || d.MapSlotsPerServer != 8 {
		t.Errorf("DefaultConfig: %+v", d)
	}
	a := AtomConfig()
	if a.Servers != 60 || a.MapSlotsPerServer != 4 {
		t.Errorf("AtomConfig: %+v", a)
	}
}

func TestMeasuredCost(t *testing.T) {
	m := TaskMeasure{Items: 100, Processed: 50, SetupSecs: 1, ReadSecs: 2, ProcSecs: 3}
	c := MeasuredCost{}
	if got := c.MapDuration(m); !stats.AlmostEqual(got, 6, 1e-12) {
		t.Errorf("MapDuration = %v", got)
	}
	c2 := MeasuredCost{Scale: 10}
	if got := c2.MapDuration(m); !stats.AlmostEqual(got, 60, 1e-12) {
		t.Errorf("scaled MapDuration = %v", got)
	}
	if got := c.ReduceDuration(0, 4); !stats.AlmostEqual(got, 4, 1e-12) {
		t.Errorf("ReduceDuration = %v", got)
	}
	t0, tr, tp := c.Params([]TaskMeasure{m, m})
	if !stats.AlmostEqual(t0, 1, 1e-12) || !stats.AlmostEqual(tr, 0.02, 1e-12) || !stats.AlmostEqual(tp, 0.06, 1e-12) {
		t.Errorf("Params = %v %v %v", t0, tr, tp)
	}
	if a, b, cc := c.Params(nil); a != 0 || b != 0 || cc != 0 {
		t.Error("empty Params should be zeros")
	}
}

func TestAnalyticCost(t *testing.T) {
	c := AnalyticCost{T0: 2, Tr: 0.01, Tp: 0.1, RedPerK: 1}
	m := TaskMeasure{Items: 100, Processed: 10}
	if got := c.MapDuration(m); math.Abs(got-(2+1+1)) > 1e-12 {
		t.Errorf("MapDuration = %v, want 4", got)
	}
	if got := c.ReduceDuration(2000, 99); !stats.AlmostEqual(got, 2, 1e-12) {
		t.Errorf("ReduceDuration = %v, want 2", got)
	}
	t0, tr, tp := c.Params([]TaskMeasure{m})
	if !stats.AlmostEqual(t0, 2, 1e-12) || !stats.AlmostEqual(tr, 0.01, 1e-12) || !stats.AlmostEqual(tp, 0.1, 1e-12) {
		t.Errorf("Params = %v %v %v", t0, tr, tp)
	}
	cb := AnalyticCost{Tr: 0.01, TrPerByte: 0.001}
	_, tr2, _ := cb.Params([]TaskMeasure{{Items: 10, Bytes: 1000}})
	if math.Abs(tr2-(0.01+0.1)) > 1e-12 {
		t.Errorf("byte-folded tr = %v", tr2)
	}
}
