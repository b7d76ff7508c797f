// Package cluster simulates the server cluster that the paper's
// evaluation ran on: a set of servers, each with a configurable number
// of map and reduce slots, advanced by a discrete-event virtual clock.
//
// Tasks execute *real Go code* when they are started; the measured (or
// analytically modeled) duration places their completion event on the
// virtual timeline. All scheduling decisions — waves of map tasks,
// killing running tasks when an error target is met, straggler
// speculation, powering idle servers down to ACPI S3 — happen in
// virtual-time order, so the simulated cluster reproduces the temporal
// structure of a real Hadoop deployment while running on one machine.
//
// Energy is integrated continuously over the virtual timeline from a
// linear power model (idle..peak watts proportional to slot
// utilization, with a deep-sleep S3 state), matching the paper's
// measured 60 W idle / 150 W peak servers.
package cluster

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"approxhadoop/internal/stats"
)

// SlotKind distinguishes map slots from reduce slots.
type SlotKind int

// Slot kinds.
const (
	MapSlot SlotKind = iota
	ReduceSlot
)

func (k SlotKind) String() string {
	if k == MapSlot {
		return "map"
	}
	return "reduce"
}

// Config describes the simulated cluster.
type Config struct {
	Servers              int     // number of servers
	MapSlotsPerServer    int     // concurrent map tasks per server
	ReduceSlotsPerServer int     // concurrent reduce tasks per server
	IdleWatts            float64 // power draw of an idle (awake) server
	PeakWatts            float64 // power draw with all slots busy
	S3Watts              float64 // power draw in the S3 sleep state
	StragglerProb        float64 // probability a task runs slow
	StragglerFactor      float64 // slowdown multiplier for stragglers
	Seed                 int64   // randomness seed for perturbations
	// SpeedFactors optionally assigns per-server speed multipliers
	// (task durations are divided by the factor); missing entries
	// default to 1. Heterogeneous clusters are a systematic source of
	// stragglers (Zaharia et al., OSDI'08), which the JobTracker's
	// speculative execution mitigates.
	SpeedFactors map[int]float64
}

// DefaultConfig mirrors the paper's Xeon cluster: 10 servers, 8 map
// slots and 1 reduce slot each, 60 W idle and 150 W peak.
func DefaultConfig() Config {
	return Config{
		Servers:              10,
		MapSlotsPerServer:    8,
		ReduceSlotsPerServer: 1,
		IdleWatts:            60,
		PeakWatts:            150,
		S3Watts:              3,
		StragglerProb:        0,
		StragglerFactor:      3,
		Seed:                 1,
	}
}

// AtomConfig mirrors the paper's 60-node Atom cluster used for the
// large scaling experiments (4 map slots, 1 reduce slot per server).
func AtomConfig() Config {
	c := DefaultConfig()
	c.Servers = 60
	c.MapSlotsPerServer = 4
	c.IdleWatts = 25
	c.PeakWatts = 45
	return c
}

// Server is one simulated machine.
type Server struct {
	ID         string
	mapBusy    int
	reduceBusy int
	mapSlots   int
	redSlots   int
	asleep     bool
	dead       bool
	speed      float64 // duration divisor; 1 = nominal
}

// Speed returns the server's speed factor (1 = nominal).
func (s *Server) Speed() float64 { return s.speed }

// Dead reports whether the server has fail-stopped.
func (s *Server) Dead() bool { return s.dead }

// FreeSlots returns the number of free slots of the given kind; a
// sleeping server has none until woken.
func (s *Server) FreeSlots(k SlotKind) int {
	if s.asleep || s.dead {
		return 0
	}
	if k == MapSlot {
		return s.mapSlots - s.mapBusy
	}
	return s.redSlots - s.reduceBusy
}

// Busy returns the number of busy slots of the given kind.
func (s *Server) Busy(k SlotKind) int {
	if k == MapSlot {
		return s.mapBusy
	}
	return s.reduceBusy
}

// Asleep reports whether the server is in the S3 state.
func (s *Server) Asleep() bool { return s.asleep }

// power returns the instantaneous power draw under cfg.
func (s *Server) power(cfg Config) float64 {
	if s.dead {
		return 0
	}
	if s.asleep {
		return cfg.S3Watts
	}
	total := s.mapSlots + s.redSlots
	if total == 0 {
		return cfg.IdleWatts
	}
	util := float64(s.mapBusy+s.reduceBusy) / float64(total)
	return cfg.IdleWatts + (cfg.PeakWatts-cfg.IdleWatts)*util
}

// event is a scheduled callback on the virtual timeline.
type event struct {
	at  float64
	seq int64 // tie-break so equal-time events run FIFO
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	//lint:ignore nofloateq event timestamps must order exactly: equal times fall through to the seq tie-break, which is what makes the schedule deterministic
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// RunningTask is a handle for a task occupying a slot.
type RunningTask struct {
	Server   *Server
	Kind     SlotKind
	Start    float64
	Finish   float64
	seq      int64 // start order; the deterministic tie-break for fault victims
	done     bool
	killed   bool
	failed   bool // killed by a fault (task fault or server death), not deliberately
	onFinish func(killed bool)
}

// Killed reports whether the task was killed before completing.
func (t *RunningTask) Killed() bool { return t.killed }

// Failed reports whether the task was terminated by a fault — a
// transient task fault or its server's death — rather than a
// deliberate Kill. Schedulers use this to choose re-execution over
// drop accounting.
func (t *RunningTask) Failed() bool { return t.failed }

// Done reports whether the task has finished or been killed.
func (t *RunningTask) Done() bool { return t.done }

// EnergyBreakdown splits integrated energy by server state.
type EnergyBreakdown struct {
	BusyJ  float64 // servers with at least one busy slot
	IdleJ  float64 // awake servers with no busy slots
	SleepJ float64 // servers in S3
}

// TotalJ returns the total integrated energy in joules.
func (b EnergyBreakdown) TotalJ() float64 { return b.BusyJ + b.IdleJ + b.SleepJ }

// Engine is the discrete-event cluster simulator.
type Engine struct {
	cfg     Config
	servers []*Server
	queue   eventQueue
	seq     int64
	now     float64
	energyJ float64 // integrated energy in joules (watt-seconds)
	breakd  EnergyBreakdown
	lastAcc float64 // time up to which energy is integrated
	rng     *rand.Rand
	running map[*RunningTask]bool
	taskSeq int64
}

// New builds an engine from cfg. Invalid slot counts are clamped to 1.
func New(cfg Config) *Engine {
	if cfg.Servers < 1 {
		cfg.Servers = 1
	}
	if cfg.MapSlotsPerServer < 1 {
		cfg.MapSlotsPerServer = 1
	}
	if cfg.ReduceSlotsPerServer < 0 {
		cfg.ReduceSlotsPerServer = 0
	}
	e := &Engine{
		cfg:     cfg,
		rng:     stats.NewRand(cfg.Seed),
		running: make(map[*RunningTask]bool),
	}
	for i := 0; i < cfg.Servers; i++ {
		speed := 1.0
		if f, ok := cfg.SpeedFactors[i]; ok && f > 0 {
			speed = f
		}
		e.servers = append(e.servers, &Server{
			ID:       fmt.Sprintf("server-%02d", i),
			mapSlots: cfg.MapSlotsPerServer,
			redSlots: cfg.ReduceSlotsPerServer,
			speed:    speed,
		})
	}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Servers returns the simulated servers.
func (e *Engine) Servers() []*Server { return e.servers }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// EnergyJoules returns the energy integrated so far, including the
// interval up to the current virtual time.
func (e *Engine) EnergyJoules() float64 {
	e.accrue()
	return e.energyJ
}

// EnergyWh returns integrated energy in watt-hours.
func (e *Engine) EnergyWh() float64 { return e.EnergyJoules() / 3600 }

// accrue integrates power draw from lastAcc to now, split by state.
func (e *Engine) accrue() {
	dt := e.now - e.lastAcc
	if dt <= 0 {
		return
	}
	for _, s := range e.servers {
		p := s.power(e.cfg) * dt
		e.energyJ += p
		switch {
		case s.dead:
			// no draw, no attribution
		case s.asleep:
			e.breakd.SleepJ += p
		case s.mapBusy+s.reduceBusy > 0:
			e.breakd.BusyJ += p
		default:
			e.breakd.IdleJ += p
		}
	}
	e.lastAcc = e.now
}

// EnergyBreakdown returns energy split by server state up to now.
func (e *Engine) EnergyBreakdown() EnergyBreakdown {
	e.accrue()
	return e.breakd
}

// At schedules fn to run at virtual time t (clamped to now).
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if ev.at > e.now {
			e.accrue()
			e.now = ev.at
		}
		ev.fn()
	}
	e.accrue()
}

// Step processes a single event; it returns false when no events
// remain. Useful for tests that need fine-grained control.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	if ev.at > e.now {
		e.accrue()
		e.now = ev.at
	}
	ev.fn()
	return true
}

// PerturbDuration applies straggler noise: with probability
// StragglerProb the duration is multiplied by StragglerFactor.
func (e *Engine) PerturbDuration(d float64) float64 {
	if e.cfg.StragglerProb > 0 && e.rng.Float64() < e.cfg.StragglerProb {
		return d * e.cfg.StragglerFactor
	}
	return d
}

// StartTask occupies one slot of the given kind on srv for duration
// seconds of virtual time. onFinish is invoked (in virtual-time order)
// when the task completes or is killed. StartTask panics if the server
// has no free slot — the scheduler must check FreeSlots first.
func (e *Engine) StartTask(srv *Server, kind SlotKind, duration float64, onFinish func(killed bool)) *RunningTask {
	t := e.StartOpenTask(srv, kind, onFinish)
	e.FinishAfter(t, duration)
	return t
}

// StartOpenTask occupies a slot for a task whose duration is not known
// up front (e.g. an incremental reduce task that finishes only when the
// job does). No completion event is scheduled; the owner must call
// FinishTask (or Kill). It panics if the server has no free slot.
func (e *Engine) StartOpenTask(srv *Server, kind SlotKind, onFinish func(killed bool)) *RunningTask {
	if srv.FreeSlots(kind) <= 0 {
		//lint:ignore nopanic documented invariant: the API contract requires callers to check FreeSlots first
		panic(fmt.Sprintf("cluster: no free %v slot on %s", kind, srv.ID))
	}
	e.accrue()
	if kind == MapSlot {
		srv.mapBusy++
	} else {
		srv.reduceBusy++
	}
	e.taskSeq++
	t := &RunningTask{
		Server:   srv,
		Kind:     kind,
		Start:    e.now,
		Finish:   -1, // unknown
		seq:      e.taskSeq,
		onFinish: onFinish,
	}
	e.running[t] = true
	return t
}

// FinishAfter converts an open-ended task into a fixed-duration one:
// its completion is scheduled d virtual seconds from now, adjusted by
// the server's speed factor exactly like StartTask. The intended use
// is two-phase task starts — occupy the slot with StartOpenTask while
// the task's compute (which determines its duration) is still being
// produced, then fix the completion once the duration is known at the
// same virtual instant. Calling it on a finished or killed task is a
// no-op.
func (e *Engine) FinishAfter(t *RunningTask, d float64) {
	if t == nil || t.done {
		return
	}
	if t.Server.speed > 0 {
		d /= t.Server.speed // x/1 == x exactly, so speed 1 is a no-op
	}
	t.Finish = e.now + d
	e.At(t.Finish, func() { e.finish(t, false) })
}

// FinishTask completes an open-ended task at the current virtual time.
func (e *Engine) FinishTask(t *RunningTask) {
	if t == nil || t.done {
		return
	}
	t.Finish = e.now
	e.finish(t, false)
}

// Kill terminates a running task immediately; its slot is released at
// the current virtual time and onFinish fires with killed=true. Killing
// an already-finished task is a no-op.
func (e *Engine) Kill(t *RunningTask) {
	if t == nil || t.done {
		return
	}
	e.finish(t, true)
}

func (e *Engine) finish(t *RunningTask, killed bool) {
	if t.done {
		return
	}
	e.accrue()
	t.done = true
	t.killed = killed
	if killed {
		t.Finish = e.now
	}
	if t.Kind == MapSlot {
		t.Server.mapBusy--
	} else {
		t.Server.reduceBusy--
	}
	delete(e.running, t)
	if t.onFinish != nil {
		t.onFinish(killed)
	}
}

// RunningTasks returns the number of currently running tasks.
func (e *Engine) RunningTasks() int { return len(e.running) }

// tasksOn returns the running tasks hosted by s in start order (the
// deterministic order required for fault callbacks — e.running is a
// map, and map iteration order must never leak into the schedule).
func (e *Engine) tasksOn(s *Server, kind SlotKind, any bool) []*RunningTask {
	var ts []*RunningTask
	for t := range e.running {
		if t.Server == s && (any || t.Kind == kind) {
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].seq < ts[j].seq })
	return ts
}

// FailServer fail-stops a server at the current virtual time: every
// task running on it is killed in start order (their onFinish
// callbacks fire with killed=true and the server's Dead flag set, so
// schedulers can distinguish failure from a deliberate kill and
// re-execute), its slots disappear, and it draws no power.
func (e *Engine) FailServer(s *Server) {
	if s.dead {
		return
	}
	e.accrue()
	s.dead = true
	for _, t := range e.tasksOn(s, MapSlot, true) {
		t.failed = true
		e.finish(t, true)
	}
}

// RecoverServer rejoins a failed server at the current virtual time:
// its slots become free and it draws idle power again. Tasks lost when
// it died stay lost (they were already killed); re-execution is the
// scheduler's business. Recovering a live server is a no-op.
func (e *Engine) RecoverServer(s *Server) {
	if !s.dead {
		return
	}
	e.accrue()
	s.dead = false
	s.asleep = false
}

// SetSpeed changes a server's speed factor (duration divisor) for
// tasks started from now on; tasks already running keep their
// scheduled completion. Non-positive factors are ignored.
func (e *Engine) SetSpeed(s *Server, factor float64) {
	if factor > 0 {
		s.speed = factor
	}
}

// FailRandomMapTask injects a transient task fault: one running map
// attempt on s (chosen by the engine's seeded RNG) is terminated with
// Failed set, while the server itself survives. It reports whether a
// victim existed. Reduce attempts are never targeted — the simulator's
// incremental reduces cannot be re-executed (documented limitation).
func (e *Engine) FailRandomMapTask(s *Server) bool {
	ts := e.tasksOn(s, MapSlot, false)
	if len(ts) == 0 {
		return false
	}
	t := ts[e.rng.Intn(len(ts))]
	t.failed = true
	e.finish(t, true)
	return true
}

// ScheduleFailure arranges a fail-stop of server s at virtual time at.
func (e *Engine) ScheduleFailure(s *Server, at float64) {
	e.At(at, func() { e.FailServer(s) })
}

// ScheduleRecovery arranges a rejoin of server s at virtual time at.
func (e *Engine) ScheduleRecovery(s *Server, at float64) {
	e.At(at, func() { e.RecoverServer(s) })
}

// Sleep transitions an idle server to the S3 state. It fails if the
// server still has busy slots.
func (e *Engine) Sleep(s *Server) error {
	if s.mapBusy > 0 || s.reduceBusy > 0 {
		return fmt.Errorf("cluster: cannot sleep %s with busy slots", s.ID)
	}
	e.accrue()
	s.asleep = true
	return nil
}

// Wake returns a sleeping server to the awake/idle state.
func (e *Engine) Wake(s *Server) {
	e.accrue()
	s.asleep = false
}

// TotalSlots returns the cluster-wide slot count of the given kind.
func (e *Engine) TotalSlots(k SlotKind) int {
	n := 0
	for _, s := range e.servers {
		if k == MapSlot {
			n += s.mapSlots
		} else {
			n += s.redSlots
		}
	}
	return n
}
