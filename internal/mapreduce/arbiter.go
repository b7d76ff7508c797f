// Slot arbitration between the cluster engine and per-job trackers.
//
// Historically the JobTracker greedily filled every free map slot it
// could see, which is correct when one job owns the cluster but makes
// multi-tenancy impossible: two trackers sharing an engine would race
// each other for slots with no notion of fairness or admission. The
// SlotArbiter interface inverts that relationship — a tracker *requests*
// a slot and the arbiter decides whether, and on which server, the
// request is granted. The default arbiter (one job, whole cluster)
// reproduces the historical greedy placement bit-for-bit; the jobserver
// package supplies multi-job arbiters with FIFO and weighted fair-share
// policies on top of the same interface.

package mapreduce

import "approxhadoop/internal/cluster"

// SlotRequest describes one map-slot acquisition attempt by a job.
type SlotRequest struct {
	// Job identifies the requesting job (arbiter bookkeeping key).
	Job *Job
	// Prefer lists replica-holding server IDs in placement order; the
	// arbiter honors data locality by granting one of these when it can.
	Prefer []string
	// Eligible is the job's own server filter (blacklisting); a nil
	// Eligible accepts every server.
	Eligible func(*cluster.Server) bool
}

// SlotArbiter arbitrates map slots among the jobs sharing one engine.
// Implementations are driven entirely from the engine's single-threaded
// virtual-time plane: every method is called in event order, so arbiter
// state — like everything else in the simulator — must be a pure
// function of the decision sequence, never of wall-clock interleaving.
type SlotArbiter interface {
	// AcquireMap asks for one map slot. A non-nil server is a grant:
	// the caller must occupy a slot on it immediately (same event) and
	// report the attempt's end via ReleaseMap. A nil server with
	// wait=true is backpressure — the job may not take a slot right now
	// but will be kicked (its fill pass re-scheduled) when capacity
	// frees. A nil server with wait=false means no eligible server can
	// host the request now or later, and the tracker's stall handling
	// (degrade or fail) applies.
	AcquireMap(req SlotRequest) (srv *cluster.Server, wait bool)
	// ReleaseMap reports that a previously granted attempt of job on
	// srv has ended (completed, killed, or failed).
	ReleaseMap(job *Job, srv *cluster.Server)
	// MapQuota returns the number of map slots the job may occupy
	// simultaneously under the current policy, or 0 for unlimited. The
	// tracker exposes it to controllers as the job's effective slot
	// count, so wave-based planning adapts to the job's actual share.
	MapQuota(job *Job) int
}

// FindMapSlot scans servers for a free map slot the request may use:
// the first eligible free replica holder, else the first eligible free
// server. The second result reports whether any live eligible server
// exists at all — when false no host can take the request now or later
// (every one is dead or filtered out), when true a full cluster need
// only wait for a release.
func FindMapSlot(servers []*cluster.Server, req SlotRequest) (srv *cluster.Server, eligible bool) {
	var fallback *cluster.Server
	for _, s := range servers {
		if (req.Eligible != nil && !req.Eligible(s)) || s.Dead() {
			continue
		}
		eligible = true
		if s.FreeSlots(cluster.MapSlot) <= 0 {
			continue
		}
		for _, rep := range req.Prefer {
			if rep == s.ID {
				return s, true
			}
		}
		if fallback == nil {
			fallback = s
		}
	}
	return fallback, eligible
}

// greedyArbiter is the single-job default: first eligible free server,
// preferring the block's replica holders — exactly the placement the
// JobTracker used before arbitration existed.
type greedyArbiter struct {
	eng *cluster.Engine
}

func newGreedyArbiter(eng *cluster.Engine) *greedyArbiter {
	return &greedyArbiter{eng: eng}
}

// AcquireMap implements SlotArbiter.
func (g *greedyArbiter) AcquireMap(req SlotRequest) (*cluster.Server, bool) {
	srv, _ := FindMapSlot(g.eng.Servers(), req)
	return srv, false
}

// ReleaseMap implements SlotArbiter; a sole tenant has nothing to
// account.
func (g *greedyArbiter) ReleaseMap(*Job, *cluster.Server) {}

// MapQuota implements SlotArbiter: the whole cluster.
func (g *greedyArbiter) MapQuota(*Job) int { return 0 }
