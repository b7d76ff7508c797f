package cluster

import (
	"testing"

	"approxhadoop/internal/stats"
)

// TestTransientTaskFault verifies a task fault kills exactly one map
// attempt with Failed set while the server stays alive.
func TestTransientTaskFault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Servers = 1
	cfg.MapSlotsPerServer = 2
	eng := New(cfg)
	s := eng.Servers()[0]
	var failedTasks, finished int
	var a, b *RunningTask
	a = eng.StartTask(s, MapSlot, 10, func(killed bool) {
		if killed && a.Failed() {
			failedTasks++
		} else {
			finished++
		}
	})
	b = eng.StartTask(s, MapSlot, 10, func(killed bool) {
		if killed && b.Failed() {
			failedTasks++
		} else {
			finished++
		}
	})
	eng.At(1, func() {
		if !eng.FailRandomMapTask(s) {
			t.Error("expected a victim")
		}
	})
	eng.Run()
	if failedTasks != 1 || finished != 1 {
		t.Errorf("failed=%d finished=%d, want 1/1", failedTasks, finished)
	}
	if s.Dead() {
		t.Error("task fault must not kill the server")
	}
	if eng.FailRandomMapTask(s) {
		t.Error("no running tasks: fault should be a no-op")
	}
}

// TestServerRecovery verifies a failed server rejoins with free slots
// and idle power draw.
func TestServerRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Servers = 1
	cfg.MapSlotsPerServer = 2
	eng := New(cfg)
	s := eng.Servers()[0]
	eng.At(10, func() { eng.FailServer(s) })
	eng.At(30, func() { eng.RecoverServer(s) })
	eng.At(50, func() {})
	eng.Run()
	if s.Dead() {
		t.Fatal("server should have recovered")
	}
	if s.FreeSlots(MapSlot) != 2 {
		t.Errorf("recovered server has %d free slots", s.FreeSlots(MapSlot))
	}
	// 0..10 idle, 10..30 dead (no draw), 30..50 idle.
	want := 30 * cfg.IdleWatts
	if got := eng.EnergyJoules(); !stats.AlmostEqual(got, want, 1e-9) {
		t.Errorf("energy %v, want %v", got, want)
	}
	eng.RecoverServer(s) // no-op on a live server
	if s.Dead() {
		t.Error("recover on live server must be a no-op")
	}
}

// TestSetSpeedAffectsFutureTasks verifies a slowdown changes only
// tasks started after it.
func TestSetSpeedAffectsFutureTasks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Servers = 1
	cfg.MapSlotsPerServer = 2
	eng := New(cfg)
	s := eng.Servers()[0]
	before := eng.StartTask(s, MapSlot, 10, nil)
	eng.SetSpeed(s, 0.5)
	after := eng.StartTask(s, MapSlot, 10, nil)
	eng.Run()
	if !stats.AlmostEqual(before.Finish, 10, 1e-12) {
		t.Errorf("pre-slowdown task finished at %v, want 10", before.Finish)
	}
	if !stats.AlmostEqual(after.Finish, 20, 1e-12) {
		t.Errorf("slowed task finished at %v, want 20", after.Finish)
	}
	eng.SetSpeed(s, 0) // ignored
	if !stats.AlmostEqual(s.speed, 0.5, 0) {
		t.Error("non-positive speed factor must be ignored")
	}
}

// TestFaultPlanInjection runs a scripted plan covering every kind and
// checks the cluster's state at the end.
func TestFaultPlanInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Servers = 6
	eng := New(cfg)
	plan := FaultPlan{Faults: []Fault{
		{At: 1, Kind: FaultSlow, Server: 0, Factor: 0.5},
		{At: 2, Kind: FaultServer, Server: 1}, // permanent
		{At: 3, Kind: FaultServer, Server: 2, Recover: 5},
		{At: 4, Kind: FaultGroup, Servers: []int{3, 4}, Recover: 2},
		{At: 5, Kind: FaultTask, Server: 5},    // no-op: nothing running
		{At: 6, Kind: FaultServer, Server: 99}, // out of range: ignored
	}}
	eng.Inject(&plan)
	eng.At(20, func() {})
	eng.Run()
	ss := eng.Servers()
	if !stats.AlmostEqual(ss[0].speed, 0.5, 0) {
		t.Error("slowdown not applied")
	}
	if !ss[1].Dead() {
		t.Error("server 1 should stay dead")
	}
	for _, i := range []int{2, 3, 4, 5} {
		if ss[i].Dead() {
			t.Errorf("server %d should be alive at the end", i)
		}
	}
	var empty *FaultPlan
	eng.Inject(empty) // nil plan is a no-op
}

// TestRandomFaultPlanDeterministicAndProtected verifies seeding and
// the protect list.
func TestRandomFaultPlanDeterministicAndProtected(t *testing.T) {
	a := RandomFaultPlan(7, 40, 8, 100, 0, 1)
	b := RandomFaultPlan(7, 40, 8, 100, 0, 1)
	if len(a.Faults) != len(b.Faults) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a.Faults), len(b.Faults))
	}
	for i := range a.Faults {
		af, bf := a.Faults[i], b.Faults[i]
		if af.Kind != bf.Kind || af.Server != bf.Server ||
			!stats.AlmostEqual(af.At, bf.At, 0) {
			t.Fatalf("plans diverge at %d: %+v vs %+v", i, af, bf)
		}
	}
	last := 0.0
	for _, f := range a.Faults {
		if f.At < last {
			t.Fatal("plan not sorted by time")
		}
		last = f.At
		if f.Kind == FaultServer && (f.Server == 0 || f.Server == 1) {
			t.Errorf("protected server %d got a fail-stop", f.Server)
		}
		if f.Kind == FaultGroup {
			for _, s := range f.Servers {
				if s == 0 || s == 1 {
					t.Errorf("protected server %d in failed group", s)
				}
			}
		}
	}
	if got := RandomFaultPlan(1, 0, 4, 10); !got.Empty() {
		t.Error("n=0 plan should be empty")
	}
	if (&FaultPlan{}).Empty() != true {
		t.Error("zero plan should be empty")
	}
}

// TestFailServerDeterministicVictimOrder fails a server hosting many
// tasks twice and checks the kill callbacks fire in start order both
// times (map iteration order must not leak into the schedule).
func TestFailServerDeterministicVictimOrder(t *testing.T) {
	run := func() []int {
		cfg := DefaultConfig()
		cfg.Servers = 1
		cfg.MapSlotsPerServer = 16
		eng := New(cfg)
		s := eng.Servers()[0]
		var order []int
		for i := 0; i < 16; i++ {
			i := i
			eng.StartTask(s, MapSlot, 100, func(killed bool) {
				if killed {
					order = append(order, i)
				}
			})
		}
		eng.At(1, func() { eng.FailServer(s) })
		eng.Run()
		return order
	}
	a := run()
	if len(a) != 16 {
		t.Fatalf("expected 16 kills, got %d", len(a))
	}
	for i, v := range a {
		if v != i {
			t.Fatalf("kills out of start order: %v", a)
		}
	}
}
