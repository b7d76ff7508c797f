package jobserver

import (
	"fmt"
	"sort"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/mapreduce"
)

// Policy selects how the service arbitrates map slots between
// concurrently active jobs.
type Policy int

// Scheduling policies.
const (
	// PolicyFIFO grants slots in strict admission order: the oldest
	// active job with demand takes every slot it wants; younger jobs
	// fill what it leaves. (Admission itself is always FIFO; the
	// policy governs slot arbitration among admitted jobs.)
	PolicyFIFO Policy = iota
	// PolicyFair divides the map slots between active jobs in
	// proportion to their weights (max-min style): a job below its
	// quota always beats one above it, and spare slots flow to anyone
	// with demand once nobody hungry is under quota, so the policy is
	// work-conserving and no job starves.
	PolicyFair
)

func (p Policy) String() string {
	if p == PolicyFair {
		return "fair"
	}
	return "fifo"
}

// ParsePolicy maps the wire names onto policies.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fifo":
		return PolicyFIFO, nil
	case "fair", "fair-share", "fairshare":
		return PolicyFair, nil
	}
	return PolicyFIFO, fmt.Errorf("jobserver: unknown policy %q (fifo, fair)", s)
}

// schedArbiter implements mapreduce.SlotArbiter over the service's
// active-job set. All methods run on the engine goroutine, in
// virtual-time order — the arbiter is deterministic state, not a
// concurrent component.
type schedArbiter struct {
	s *Service
}

// AcquireMap implements mapreduce.SlotArbiter.
func (a *schedArbiter) AcquireMap(req mapreduce.SlotRequest) (*cluster.Server, bool) {
	e := a.s.entries[req.Job]
	if e == nil {
		// Not a service job (defensive): behave like the single-job
		// greedy arbiter.
		srv, eligible := mapreduce.FindMapSlot(a.s.eng.Servers(), req)
		return srv, srv == nil && eligible
	}
	if !a.mayGrant(e) {
		e.hungry = true
		return nil, true // policy backpressure; a release will kick
	}
	srv, eligible := mapreduce.FindMapSlot(a.s.eng.Servers(), req)
	if srv == nil {
		if !eligible {
			return nil, false // no live eligible host: stall handling
		}
		e.hungry = true
		return nil, true // physically full; a release will kick
	}
	e.grants++
	if e.h != nil && e.h.MapDemand() <= 1 {
		// This grant satisfies the job's last pending task. Jobs the
		// policy was holding back behind its demand (FIFO order, fair
		// quotas) become grantable only at the next kick — schedule
		// one so leftover slots are not stranded until a release.
		a.s.scheduleKicks()
	}
	return srv, false
}

// ReleaseMap implements mapreduce.SlotArbiter: every map attempt end
// returns its grant and wakes whoever the policy now favors.
func (a *schedArbiter) ReleaseMap(job *mapreduce.Job, srv *cluster.Server) {
	if e := a.s.entries[job]; e != nil && e.grants > 0 {
		e.grants--
	}
	a.s.scheduleKicks()
}

// MapQuota implements mapreduce.SlotArbiter: fair-share jobs plan
// their waves against their slot share; FIFO jobs see the whole
// cluster (0 = unlimited).
func (a *schedArbiter) MapQuota(job *mapreduce.Job) int {
	if a.s.cfg.Policy != PolicyFair {
		return 0
	}
	e := a.s.entries[job]
	if e == nil {
		return 0
	}
	return a.quota(e)
}

// mayGrant applies the policy: may entry e take one more slot now?
func (a *schedArbiter) mayGrant(e *entry) bool {
	if a.s.cfg.Policy == PolicyFair {
		if e.grants < a.quota(e) {
			return true
		}
		// Over quota: work conservation lets e overshoot only while no
		// other active job is hungry below its own quota.
		for _, f := range a.s.active {
			if f != e && f.h != nil && f.grants < a.quota(f) && f.h.MapDemand() > 0 {
				return false
			}
		}
		return true
	}
	// FIFO: every earlier-admitted active job with demand goes first.
	for _, f := range a.s.active {
		if f.seq < e.seq && f.h != nil && f.h.MapDemand() > 0 {
			return false
		}
	}
	return true
}

// quota is e's weighted share of the cluster's map slots, at least 1.
func (a *schedArbiter) quota(e *entry) int {
	total := a.s.eng.TotalSlots(cluster.MapSlot)
	sumW := 0.0
	for _, f := range a.s.active {
		sumW += f.weight
	}
	if sumW <= 0 {
		return total
	}
	q := int(float64(total) * e.weight / sumW)
	if q < 1 {
		q = 1
	}
	return q
}

// kickHungry re-runs the scheduling pass of every active job that was
// denied a slot since the last kick, most-underserved first. The order
// is deterministic — (grants/weight, admission seq) — so the virtual
// timeline is identical run to run; under FIFO the admission sequence
// alone decides.
func (s *Service) kickHungry() {
	es := append([]*entry(nil), s.active...)
	if s.cfg.Policy == PolicyFair {
		sort.SliceStable(es, func(i, j int) bool {
			ri := float64(es[i].grants) / es[i].weight
			rj := float64(es[j].grants) / es[j].weight
			if ri < rj {
				return true
			}
			if rj < ri {
				return false
			}
			return es[i].seq < es[j].seq
		})
	}
	for _, e := range es {
		if e.hungry && e.h != nil && !e.h.Done() {
			e.hungry = false
			e.h.Kick()
		}
	}
}

// scheduleKicks coalesces kick requests into one engine event at the
// current virtual instant, so grants and releases happening inside a
// scheduling pass wake waiters only after the pass completes.
func (s *Service) scheduleKicks() {
	if s.kickQueued {
		return
	}
	s.kickQueued = true
	s.eng.At(s.eng.Now(), func() {
		s.kickQueued = false
		s.kickHungry()
	})
}
