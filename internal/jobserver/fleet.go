package jobserver

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"approxhadoop/internal/ring"
)

// ErrTenantQuota is returned by Submit when a tenant already has its
// quota of in-flight jobs (HTTP maps it to 429 — the client should
// retry after some of the tenant's jobs finish).
var ErrTenantQuota = errors.New("jobserver: tenant quota exceeded, retry later")

// fleetRingSeed fixes the consistent-hash ring's hash seed. It is a
// compile-time constant on purpose: placement must be a pure function
// of (key, shard count) so a restarted daemon — and the recovery test
// replaying its journals — routes every tenant exactly as the previous
// life did.
const fleetRingSeed = 0x5bd1e995

// Fleet routes jobs across a set of engine shards. Placement is
// consistent hashing on JobSpec.PlacementKey (tenant first): a tenant's
// jobs always land on the same shard, the mapping is deterministic for
// a fixed shard count, and growing the fleet from N to N+1 shards moves
// only ~1/(N+1) of the keyspace. The fleet also enforces the one piece
// of cross-shard policy the shards cannot see alone: per-tenant
// admission quotas over in-flight (non-terminal) live submissions.
//
// Everything id-addressed routes by the shard-owning id prefix
// ("job-s2-0001" names shard 2), so reads never consult a directory.
type Fleet struct {
	shards []*engineShard
	ring   *ring.Ring
	member map[string]*engineShard
	quota  int

	// qmu guards the quota ledger. It is taken from HTTP handler
	// goroutines (reserve) and from shard engine goroutines (release,
	// via the terminal hook); both sides do pure map updates, so the
	// engine never blocks behind it.
	qmu     sync.Mutex
	tenants map[string]int    // tenant -> in-flight live submissions
	counted map[string]string // job id -> tenant owed a release
}

// NewFleet starts a driver goroutine per service and wires placement
// and quota tracking. Services must be fully recovered (Recover run,
// no driver yet); the fleet installs each service's terminal hook and
// charges recovered in-flight jobs to their tenants before any engine
// steps, so quota accounting is exact across a restart.
func NewFleet(svcs []*Service, quota int) *Fleet {
	f := &Fleet{
		ring:    ring.New(fleetRingSeed, ring.DefaultReplicas),
		member:  make(map[string]*engineShard),
		quota:   quota,
		tenants: make(map[string]int),
		counted: make(map[string]string),
	}
	names := make([]string, len(svcs))
	for i := range svcs {
		names[i] = shardMember(i)
		f.ring.Add(names[i])
	}
	for i, svc := range svcs {
		svc.SetOnTerminal(f.releaseJob)
		// Recovered jobs that will re-run (queued or re-admitted) hold
		// quota units until their terminal hook fires, same as live ones.
		for _, st := range svc.Jobs() {
			if !st.Status.Terminal() {
				f.tenants[st.Spec.Tenant]++
				f.counted[st.ID] = st.Spec.Tenant
			}
		}
		sh := newEngineShard(i, svc)
		f.shards = append(f.shards, sh)
		f.member[names[i]] = sh
	}
	return f
}

// shardMember is the ring-member name of shard i.
func shardMember(i int) string {
	return fmt.Sprintf("shard-%d", i)
}

// Shard exposes shard i's service for tests and in-process callers.
func (f *Fleet) Shard(i int) *Service { return f.shards[i].svc }

// place returns the shard owning key.
func (f *Fleet) place(key string) *engineShard {
	return f.member[f.ring.Lookup(key)]
}

// PlacementShard reports which shard index a placement key routes to.
func (f *Fleet) PlacementShard(key string) int {
	return f.place(key).idx
}

// shardFor locates the shard owning job id: by id prefix when the
// fleet is sharded (ids carry their shard), falling back to a scan for
// ids that predate sharding or were installed by hand.
func (f *Fleet) shardFor(id string) *engineShard {
	if len(f.shards) == 1 {
		return f.shards[0]
	}
	for _, sh := range f.shards {
		if strings.HasPrefix(id, sh.svc.idPrefix()) {
			return sh
		}
	}
	for _, sh := range f.shards {
		if _, ok := sh.svc.JobInfo(id); ok {
			return sh
		}
	}
	// Unknown id: any shard answers "no job" identically.
	return f.shards[0]
}

// ServiceFor returns the service owning job id (for read paths:
// JobInfo and FramesFrom are safe from any goroutine).
func (f *Fleet) ServiceFor(id string) *Service { return f.shardFor(id).svc }

// reserve charges one in-flight unit to tenant, failing when the quota
// is exhausted. A zero quota disables enforcement.
func (f *Fleet) reserve(tenant string) bool {
	if f.quota <= 0 {
		return true
	}
	f.qmu.Lock()
	defer f.qmu.Unlock()
	if f.tenants[tenant] >= f.quota {
		return false
	}
	f.tenants[tenant]++
	return true
}

// noteJob records that job id holds a quota unit for tenant.
func (f *Fleet) noteJob(id, tenant string) {
	f.qmu.Lock()
	f.counted[id] = tenant
	f.qmu.Unlock()
}

// undoReserve returns tenant's unit after a failed submit.
func (f *Fleet) undoReserve(tenant string) {
	if f.quota <= 0 {
		return
	}
	f.qmu.Lock()
	if f.tenants[tenant] > 1 {
		f.tenants[tenant]--
	} else {
		delete(f.tenants, tenant)
	}
	f.qmu.Unlock()
}

// releaseJob is the per-service terminal hook: when a counted job
// reaches a terminal state its tenant gets the unit back. Runs on the
// shard's engine goroutine, outside Service.mu; pure map updates only.
func (f *Fleet) releaseJob(st *JobState) {
	f.qmu.Lock()
	tenant, ok := f.counted[st.ID]
	if ok {
		delete(f.counted, st.ID)
		if f.tenants[tenant] > 1 {
			f.tenants[tenant]--
		} else {
			delete(f.tenants, tenant)
		}
	}
	f.qmu.Unlock()
}

// Submit places spec on its shard and admits it there, enforcing the
// tenant quota. Keyed retries dedupe fleet-wide: the placed shard is
// checked inside its own driver (so two concurrent retries race safely
// on one goroutine), and the other shards are consulted first for keys
// whose original landed elsewhere under an older shard count.
func (f *Fleet) Submit(spec JobSpec) (string, error) {
	sh := f.place(spec.PlacementKey())
	if spec.IdempotencyKey != "" && len(f.shards) > 1 {
		for _, other := range f.shards {
			if other == sh {
				continue
			}
			var id string
			var ok bool
			if err := other.do(func() { id, ok = other.svc.IdempotentID(spec.IdempotencyKey) }); err != nil {
				return "", err
			}
			if ok {
				return id, nil
			}
		}
	}
	var id string
	var err error
	doErr := sh.do(func() {
		if spec.IdempotencyKey != "" {
			if dup, ok := sh.svc.IdempotentID(spec.IdempotencyKey); ok {
				id = dup
				return
			}
		}
		if !f.reserve(spec.Tenant) {
			err = ErrTenantQuota
			return
		}
		id, err = sh.svc.Submit(spec)
		if err != nil {
			f.undoReserve(spec.Tenant)
			return
		}
		f.noteJob(id, spec.Tenant)
	})
	if doErr != nil {
		return "", doErr
	}
	return id, err
}

// Cancel aborts a job on its owning shard's driver.
func (f *Fleet) Cancel(id string) error {
	sh := f.shardFor(id)
	var cErr error
	if doErr := sh.do(func() { cErr = sh.svc.Cancel(id) }); doErr != nil {
		return doErr
	}
	return cErr
}

// Replay runs a whole trace: the sorted specs are partitioned by
// placement (subsequences of a sorted trace stay sorted, so each shard
// replays its share in trace order), the shards replay concurrently,
// and the states come back interleaved in sorted-trace order. Because
// each job's result depends only on (spec, seed), the per-job outputs
// are byte-identical for any shard count — only which engine clock ran
// them differs. Replayed jobs bypass tenant quotas: a trace is a batch,
// not live admission.
func (f *Fleet) Replay(specs []JobSpec) ([]JobState, error) {
	ordered := SortTrace(specs)
	parts := make([][]JobSpec, len(f.shards))
	route := make([]int, len(ordered))
	for i, spec := range ordered {
		si := f.place(spec.PlacementKey()).idx
		parts[si] = append(parts[si], spec)
		route[i] = si
	}
	results := make([][]JobState, len(f.shards))
	errs := make([]error, len(f.shards))
	var wg sync.WaitGroup
	for i := range f.shards {
		if len(parts[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := f.shards[i]
			errs[i] = sh.do(func() { results[i] = sh.svc.Replay(parts[i]) })
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cursor := make([]int, len(f.shards))
	out := make([]JobState, 0, len(ordered))
	for _, si := range route {
		out = append(out, results[si][cursor[si]])
		cursor[si]++
	}
	return out, nil
}

// Jobs returns every shard's jobs, shard by shard, each in submission
// order.
func (f *Fleet) Jobs() []JobState {
	var out []JobState
	for _, sh := range f.shards {
		out = append(out, sh.svc.Jobs()...)
	}
	return out
}

// JobInfo returns one job's state from its owning shard.
func (f *Fleet) JobInfo(id string) (JobState, bool) {
	return f.ServiceFor(id).JobInfo(id)
}

// Stats aggregates shard counters, sampling each on its own driver so
// the engine fields are read between engine events. VirtualNow is the
// max across shards (each runs its own clock); slots and counters sum.
func (f *Fleet) Stats() (Stats, error) {
	var agg Stats
	for i, sh := range f.shards {
		var st Stats
		if err := sh.do(func() { st = sh.svc.Stats() }); err != nil {
			return Stats{}, err
		}
		if i == 0 {
			agg = st
			continue
		}
		if st.VirtualNow > agg.VirtualNow {
			agg.VirtualNow = st.VirtualNow
		}
		agg.EnergyWh += st.EnergyWh
		agg.Active += st.Active
		agg.Queued += st.Queued
		agg.Submitted += st.Submitted
		agg.Done += st.Done
		agg.Failed += st.Failed
		agg.Canceled += st.Canceled
		agg.Rejected += st.Rejected
		agg.MapSlots += st.MapSlots
		agg.ReduceSlots += st.ReduceSlots
	}
	agg.Shards = len(f.shards)
	return agg, nil
}

// StartDrain stops admissions fleet-wide.
func (f *Fleet) StartDrain() {
	for _, sh := range f.shards {
		sh.svc.StartDrain()
	}
}

// ActiveTotal sums running jobs across shards, each sampled on its own
// driver.
func (f *Fleet) ActiveTotal() (int, error) {
	total := 0
	for _, sh := range f.shards {
		var n int
		if err := sh.do(func() { n = sh.svc.ActiveCount() }); err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Quiesce group-commits every shard's buffered journal records.
func (f *Fleet) Quiesce() {
	for _, sh := range f.shards {
		// A stopped shard already committed on its close path.
		_ = sh.do(sh.svc.journalQuiesce) //lint:ignore errcheck stopped shards have already committed
	}
}

// JournalErr returns the first journal failure on any shard.
func (f *Fleet) JournalErr() error {
	for _, sh := range f.shards {
		if err := sh.svc.JournalErr(); err != nil {
			return err
		}
	}
	return nil
}

// Draining reports whether the fleet is draining.
func (f *Fleet) Draining() bool { return f.shards[0].svc.Draining() }

// Close stops every shard driver and closes its service and journal
// segment. Idempotent per shard.
func (f *Fleet) Close() {
	for _, sh := range f.shards {
		sh.halt()
	}
}
