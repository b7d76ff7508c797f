package jobserver

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/mapreduce"
)

// ErrBusy is returned by Submit when the admission queue is full — the
// service's backpressure signal (HTTP maps it to 429).
var ErrBusy = errors.New("jobserver: admission queue full, retry later")

// ErrDraining is returned by Submit while the service is draining for
// shutdown (HTTP maps it to 503 with a Retry-After header). Queued and
// running jobs are unaffected; new work must go elsewhere or retry
// after the restart.
var ErrDraining = errors.New("jobserver: draining for shutdown, retry later")

// Config sizes the service.
type Config struct {
	// Cluster describes the shared simulated cluster (zero value:
	// cluster.DefaultConfig(), the paper's 10-server Xeon rack).
	Cluster cluster.Config
	// Policy arbitrates map slots between active jobs.
	Policy Policy
	// MaxActive caps concurrently running jobs (default 8). Admission
	// additionally requires free reduce slots for the job.
	MaxActive int
	// MaxQueue bounds the admission queue (default 64); beyond it
	// Submit returns ErrBusy.
	MaxQueue int
	// Workers is the per-job compute-pool size applied to specs that
	// do not set their own (0 = GOMAXPROCS).
	Workers int
	// SnapshotEvery is the virtual-time period of streaming
	// early-result snapshots (default 40 s; <0 disables).
	SnapshotEvery float64
	// IDPrefix prefixes generated job ids (default "job-", yielding
	// "job-0000"). A fleet daemon gives each shard a distinct prefix
	// ("job-s2-") so ids are globally unique and name their owning
	// shard, which is how the HTTP layer routes id-addressed requests
	// without a directory.
	IDPrefix string
	// ShardIndex is this service's shard number within a fleet (0 for
	// a standalone daemon). It is journaled with every submit record;
	// recovery refuses a journal segment written by a different shard.
	ShardIndex int
	// TenantQuota caps in-flight (non-terminal) live submissions per
	// tenant across the whole fleet (0 = unlimited). Enforced by the
	// Fleet router, not the Service; it lives here so one Config
	// describes a whole daemon.
	TenantQuota int
}

// JobStatus is the lifecycle state of a service job.
type JobStatus string

// Job lifecycle states.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
	StatusRejected JobStatus = "rejected"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	switch s {
	case StatusDone, StatusFailed, StatusCanceled, StatusRejected:
		return true
	}
	return false
}

// JobState is the externally visible state of one submission. Reads
// through JobInfo/Jobs return copies that are safe to use from any
// goroutine.
type JobState struct {
	ID       string            `json:"id"`
	Spec     JobSpec           `json:"spec"`
	Status   JobStatus         `json:"status"`
	SubmitVT float64           `json:"submitVT"` // virtual submission time
	StartVT  float64           `json:"startVT"`  // virtual admission time
	EndVT    float64           `json:"endVT"`    // virtual completion time
	Err      string            `json:"error,omitempty"`
	Result   *mapreduce.Result `json:"result,omitempty"`
	// frames is the job's early-result history, one encoded frame per
	// Seq: the current cross-partition estimates T virtual seconds after
	// its start, their intervals narrowing as waves complete, the last
	// frame of a successful job its final output. Each is stamped at
	// creation and served verbatim to every subscriber (see frames.go).
	// Appends happen on the engine goroutine; reads anywhere under
	// Service.mu, through FramesFrom.
	frames []*encFrame
}

// entry is the service's per-job scheduling state. Everything here
// belongs to the engine goroutine.
type entry struct {
	state    *JobState // mutations guarded by Service.mu
	job      *mapreduce.Job
	h        *mapreduce.Handle
	seq      int
	weight   float64
	grants   int  // map slots currently granted by the arbiter
	hungry   bool // denied a slot since the last kick
	canceled bool
}

// Service runs many jobs concurrently on one shared engine. All
// mutating methods (Submit, Cancel, Replay, and the engine callbacks)
// must run on the goroutine that drives the engine; the read methods
// (JobInfo, Jobs, Stats, FramesFrom) are safe from any goroutine.
type Service struct {
	cfg Config
	eng *cluster.Engine

	// Engine-goroutine state.
	entries       map[*mapreduce.Job]*entry
	queue         []*entry
	active        []*entry
	seq           int
	activeReduces int
	kickQueued    bool
	// journal, when set, write-ahead-logs every state transition. It is
	// engine-goroutine state: appends and commits happen between engine
	// events, never under mu (fsync under the service lock would stall
	// every reader — the lockheld analyzer enforces this).
	journal    *Journal
	recovering bool
	// idemp maps client idempotency keys to the job id that first
	// claimed them; duplicate submissions are answered with the
	// original job.
	idemp map[string]string
	// onTerminal, when set (SetOnTerminal), runs on the engine
	// goroutine after a job reaches a terminal state, outside mu. The
	// fleet uses it to release per-tenant admission-quota units.
	onTerminal func(*JobState)

	// Cross-goroutine state.
	mu                                   sync.Mutex
	cond                                 *sync.Cond
	states                               map[string]*JobState
	order                                []string // submission order of IDs
	closed                               bool
	draining                             bool
	journalErr                           error
	nDone, nFailed, nCanceled, nRejected int
	closeOnce                            sync.Once
}

// New builds a service and its private simulated cluster.
func New(cfg Config) *Service {
	if cfg.Cluster.Servers == 0 {
		cfg.Cluster = cluster.DefaultConfig()
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 8
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 40
	}
	s := &Service{
		cfg:     cfg,
		eng:     cluster.New(cfg.Cluster),
		entries: make(map[*mapreduce.Job]*entry),
		states:  make(map[string]*JobState),
		idemp:   make(map[string]string),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// UseJournal attaches a write-ahead journal. Call once, before any
// submissions; pair with Recover when the journal already holds
// records from a previous life of the daemon.
func (s *Service) UseJournal(j *Journal) { s.journal = j }

// idPrefix is the job-id prefix (Config.IDPrefix, default "job-").
func (s *Service) idPrefix() string {
	if s.cfg.IDPrefix != "" {
		return s.cfg.IDPrefix
	}
	return "job-"
}

// SetOnTerminal installs the terminal-transition hook. Call before the
// driver goroutine starts (and after Recover — restored states must
// not fire it); the hook runs on the engine goroutine without mu held,
// so it may take its own locks but must not block.
func (s *Service) SetOnTerminal(fn func(*JobState)) { s.onTerminal = fn }

// notifyTerminal invokes the terminal hook. Engine goroutine only,
// never under mu.
func (s *Service) notifyTerminal(st *JobState) {
	if s.onTerminal != nil {
		s.onTerminal(st)
	}
}

// IdempotentID reports the job id that already claimed key, if any.
// Engine goroutine only — the fleet router consults it (via the
// shard's mailbox) before charging a tenant's quota, so duplicate
// keyed submissions are answered without consuming a unit.
func (s *Service) IdempotentID(key string) (string, bool) {
	id, ok := s.idemp[key]
	return id, ok
}

// Journaled reports whether a journal is attached.
func (s *Service) Journaled() bool { return s.journal != nil }

// journalAppend appends one record, recording (not returning) any
// failure: mid-run transitions must not fail their job, and the
// durability-critical path (Submit) checks the error explicitly via
// journalCommit. Engine goroutine only.
func (s *Service) journalAppend(rec JournalRecord) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		s.setJournalErr(err)
	}
}

// journalCommit makes everything appended so far durable. Engine
// goroutine only.
func (s *Service) journalCommit() error {
	if s.journal == nil {
		return nil
	}
	if err := s.journal.Commit(); err != nil {
		s.setJournalErr(err)
		return err
	}
	return nil
}

// journalQuiesce commits buffered journal records at a quiescent
// point (engine idle, drain). Failures are recorded (JournalErr flips
// /healthz), not returned: nothing at an idle point can act on them.
// Engine goroutine only.
func (s *Service) journalQuiesce() {
	if s.journal == nil {
		return
	}
	if err := s.journal.Commit(); err != nil {
		s.setJournalErr(err)
	}
}

// journalTerminal appends a job's terminal record (degrade first when
// the run folded tasks into drops). Engine goroutine only; st must no
// longer be reachable for mutation or must be read-stable.
func (s *Service) journalTerminal(st *JobState) {
	if s.journal == nil {
		return
	}
	if st.Result != nil && st.Result.Counters.MapsDegraded > 0 {
		s.journalAppend(JournalRecord{Op: JournalDegrade, ID: st.ID, EndVT: st.EndVT})
	}
	s.journalAppend(JournalRecord{
		Op:       JournalDone,
		ID:       st.ID,
		Status:   st.Status,
		Err:      st.Err,
		SubmitVT: st.SubmitVT,
		StartVT:  st.StartVT,
		EndVT:    st.EndVT,
		Result:   toJournalResult(st.Result),
	})
}

func (s *Service) setJournalErr(err error) {
	s.mu.Lock()
	if s.journalErr == nil {
		s.journalErr = err
	}
	s.mu.Unlock()
}

// JournalErr returns the first journal I/O failure, if any. A non-nil
// value flips /healthz and /readyz to 503: the daemon can no longer
// promise durability. Safe from any goroutine.
func (s *Service) JournalErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalErr
}

// Engine exposes the shared engine for the goroutine driving it.
func (s *Service) Engine() *cluster.Engine { return s.eng }

// Close marks the service shut down, wakes every stream waiter, and
// commits and closes the journal. Idempotent: daemon teardown, signal
// handlers, and tests may all call it; only the first call acts. The
// journal close requires that the goroutine driving the engine has
// stopped (Daemon.Stop guarantees this ordering).
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.cond.Broadcast()
		if s.journal != nil {
			if err := s.journal.Close(); err != nil {
				s.setJournalErr(err)
			}
		}
	})
}

// StartDrain stops admissions: subsequent Submits fail with
// ErrDraining, and queued jobs are no longer dispatched — they stay
// journaled for recovery at the next boot. Running jobs are unaffected.
// Safe from any goroutine; flips /readyz to 503.
func (s *Service) StartDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether StartDrain has been called. Safe from any
// goroutine.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ActiveCount returns the number of running jobs. Engine goroutine
// only (the drain loop samples it through the daemon mailbox).
func (s *Service) ActiveCount() int { return len(s.active) }

// Submit validates and enqueues one job at the current virtual time,
// dispatching immediately if capacity allows. Engine goroutine only.
//
// Submissions carrying an idempotency key are deduplicated: a key seen
// before (including across a crash, via the journal) returns the
// original job's id without creating a new job, so clients can retry
// blind after a timeout or a daemon restart and still observe exactly
// one execution. When a journal is attached, the submit record is
// fsynced before Submit returns — an acknowledged job survives a kill
// -9 by construction.
func (s *Service) Submit(spec JobSpec) (string, error) {
	if s.Draining() {
		return s.reject(ErrDraining)
	}
	if spec.IdempotencyKey != "" {
		if id, ok := s.idemp[spec.IdempotencyKey]; ok {
			return id, nil
		}
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		return s.reject(ErrBusy)
	}
	job, err := spec.Build(s.cfg.Workers)
	if err != nil {
		return s.reject(err)
	}
	if rs := s.eng.TotalSlots(cluster.ReduceSlot); job.Reduces > rs {
		return s.reject(fmt.Errorf("jobserver: spec wants %d reduces but the cluster has %d reduce slots", job.Reduces, rs))
	}
	id := fmt.Sprintf("%s%04d", s.idPrefix(), s.seq)
	if s.journal != nil && !s.recovering {
		s.journalAppend(JournalRecord{Op: JournalSubmit, ID: id, Shard: s.cfg.ShardIndex, Spec: &spec, SubmitVT: s.eng.Now()})
		if err := s.journalCommit(); err != nil {
			// The job was never acknowledged and never enqueued; the
			// client must retry (ideally elsewhere — /readyz is now 503).
			return s.reject(fmt.Errorf("jobserver: journal write failed, submission not accepted: %w", err))
		}
	}
	s.enqueue(spec, job, id)
	return id, nil
}

// reject counts one refused submission and returns err as Submit's
// answer.
func (s *Service) reject(err error) (string, error) {
	s.mu.Lock()
	s.nRejected++
	s.mu.Unlock()
	return "", err
}

// enqueue installs an already-validated, already-journaled job and
// dispatches. Shared by Submit and recovery re-admission; engine
// goroutine only.
func (s *Service) enqueue(spec JobSpec, job *mapreduce.Job, id string) {
	st := &JobState{ID: id, Spec: spec, Status: StatusQueued, SubmitVT: s.eng.Now()}
	weight := spec.Weight
	if weight <= 0 {
		weight = 1
	}
	e := &entry{state: st, job: job, seq: s.seq, weight: weight}
	s.seq++
	if spec.IdempotencyKey != "" {
		s.idemp[spec.IdempotencyKey] = id
	}
	if s.cfg.SnapshotEvery > 0 {
		job.SnapshotEvery = s.cfg.SnapshotEvery
		job.OnSnapshot = func(t float64, ests []mapreduce.KeyEstimate) {
			// Encode the wire frame once, outside the lock (the engine
			// goroutine is the only frame producer, so len(st.frames) is
			// stable here); every subscriber shares the buffer.
			f := newJobFrame(len(st.frames), t, StatusRunning, false, ests)
			s.mu.Lock()
			st.frames = append(st.frames, f)
			s.mu.Unlock()
			s.cond.Broadcast()
		}
	}
	s.entries[job] = e
	s.mu.Lock()
	s.states[id] = st
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.queue = append(s.queue, e)
	s.dispatch()
}

// dispatch admits queued jobs in FIFO order while capacity allows: a
// free active slot and enough free reduce slots for the head job
// (head-of-line blocking — jobs never overtake within the queue, so
// admission order is reproducible). During a drain nothing is
// admitted: queued jobs keep their journaled admission state and are
// re-admitted, in this exact order, by recovery at the next boot.
func (s *Service) dispatch() {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return
	}
	for len(s.queue) > 0 {
		if len(s.active) >= s.cfg.MaxActive {
			return
		}
		e := s.queue[0]
		if s.activeReduces+e.job.Reduces > s.eng.TotalSlots(cluster.ReduceSlot) {
			return
		}
		s.queue = s.queue[1:]
		h, err := mapreduce.Start(s.eng, e.job, mapreduce.StartOptions{
			Arbiter: &schedArbiter{s: s},
			OnDone:  func(res *mapreduce.Result, jobErr error) { s.onJobDone(e, res, jobErr) },
		})
		if err != nil {
			delete(s.entries, e.job)
			s.mu.Lock()
			e.state.Status = StatusFailed
			e.state.Err = err.Error()
			e.state.EndVT = s.eng.Now()
			s.nFailed++
			s.mu.Unlock()
			s.cond.Broadcast()
			s.notifyTerminal(e.state)
			s.journalTerminal(e.state)
			continue
		}
		e.h = h
		s.active = append(s.active, e)
		s.activeReduces += e.job.Reduces
		s.mu.Lock()
		e.state.Status = StatusRunning
		e.state.StartVT = s.eng.Now()
		s.mu.Unlock()
		s.cond.Broadcast()
		s.journalAppend(JournalRecord{Op: JournalAdmit, ID: e.state.ID, StartVT: e.state.StartVT})
	}
}

// onJobDone is the tracker's completion hook: it runs on the engine
// goroutine at the job's virtual completion instant, frees the job's
// admission capacity, records the outcome, and lets queued and waiting
// jobs advance.
func (s *Service) onJobDone(e *entry, res *mapreduce.Result, err error) {
	for i, f := range s.active {
		if f == e {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
	s.activeReduces -= e.job.Reduces
	delete(s.entries, e.job)
	st := e.state
	// Decide the terminal status first and pre-encode its wire frame
	// outside the lock; watchers observe the frame and the status flip
	// as one transition.
	status := StatusDone
	switch {
	case err != nil && e.canceled:
		status = StatusCanceled
	case err != nil:
		status = StatusFailed
	}
	var doneFrame, restamped *encFrame
	if status == StatusDone {
		// The terminal snapshot's frame: stamped done+final at creation,
		// so streams converge exactly to the job's final outputs.
		doneFrame = newJobFrame(len(st.frames), res.Runtime, StatusDone, true, res.Outputs)
	} else if n := len(st.frames); n > 0 {
		// Failed/canceled mid-run: no new estimates to publish, but the
		// last cached frame must carry the terminal status so resumed
		// subscribers see an ending without a per-connection re-encode.
		restamped = restampJobFrame(st.frames[n-1], status)
	}
	s.mu.Lock()
	st.EndVT = s.eng.Now()
	st.Status = status
	switch status {
	case StatusCanceled:
		st.Err = err.Error()
		s.nCanceled++
	case StatusFailed:
		st.Err = err.Error()
		s.nFailed++
	default:
		st.Result = res
		s.nDone++
		st.frames = append(st.frames, doneFrame)
	}
	if restamped != nil {
		st.frames = withLast(st.frames, restamped)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	s.notifyTerminal(st)
	s.journalTerminal(st)
	s.dispatch()
	s.scheduleKicks()
}

// Cancel aborts a job. Queued jobs leave the queue; running jobs are
// killed at the current virtual time. Terminal jobs are left alone.
// Engine goroutine only.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	st, ok := s.states[id]
	terminal := ok && st.Status.Terminal()
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("jobserver: no job %q", id)
	}
	if terminal {
		return nil
	}
	for i, e := range s.queue {
		if e.state == st {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			delete(s.entries, e.job)
			s.mu.Lock()
			st.Status = StatusCanceled
			st.Err = "jobserver: canceled while queued"
			st.EndVT = s.eng.Now()
			s.nCanceled++
			s.mu.Unlock()
			s.cond.Broadcast()
			s.notifyTerminal(st)
			s.journalTerminal(st)
			return nil
		}
	}
	for _, e := range s.active {
		if e.state == st {
			e.canceled = true
			// Journal the request before the kill lands: if the daemon
			// dies in between, recovery honors the cancellation instead
			// of resurrecting a job the client asked to stop.
			s.journalAppend(JournalRecord{Op: JournalCancel, ID: id, EndVT: s.eng.Now()})
			e.h.Cancel()
			return nil
		}
	}
	return nil
}

// RecoveryStats summarizes what Recover found in the journal.
type RecoveryStats struct {
	// Terminal is the number of jobs restored directly from journaled
	// terminal records (done/failed/canceled) — no re-execution.
	Terminal int
	// Requeued is the number of incomplete jobs re-admitted for
	// deterministic re-execution from their recorded spec + seed.
	Requeued int
	// Canceled is the number of jobs with a journaled cancel request
	// but no terminal record, finalized as canceled without re-running.
	Canceled int
}

// Recover replays a journal read by OpenJournal: jobs with terminal
// records are restored verbatim (result, counters, idempotency key),
// jobs with a cancel request but no terminal record are finalized as
// canceled, and everything else — queued or running at the moment of
// the crash — is re-admitted in original submission order under its
// original id. Because a (spec, seed) run is bit-identical regardless
// of scheduling, the re-executed jobs produce exactly the results an
// uninterrupted daemon would have: recovery is replay-from-seed, no
// result checkpoints needed. Call once, on the engine goroutine,
// after UseJournal and before serving traffic.
func (s *Service) Recover(recs []JournalRecord) (RecoveryStats, error) {
	var rs RecoveryStats
	if len(recs) == 0 {
		return rs, nil
	}
	type jobRec struct {
		submit *JournalRecord
		done   *JournalRecord
		cancel *JournalRecord
	}
	byID := make(map[string]*jobRec)
	var order []string
	maxSeq := -1
	for i := range recs {
		rec := &recs[i]
		jr := byID[rec.ID]
		if jr == nil {
			jr = &jobRec{}
			byID[rec.ID] = jr
		}
		switch rec.Op {
		case JournalSubmit:
			if jr.submit != nil {
				return rs, fmt.Errorf("jobserver: journal has duplicate submit for %s", rec.ID)
			}
			if rec.Spec == nil {
				return rs, fmt.Errorf("jobserver: journal submit for %s carries no spec", rec.ID)
			}
			if rec.Shard != s.cfg.ShardIndex {
				// Replaying another shard's segment would re-place jobs and
				// break bit-identical recovery; refuse loudly — the operator
				// restarted with the wrong -shards or swapped segment files.
				return rs, fmt.Errorf("jobserver: journal submit for %s belongs to shard %d, not shard %d (restart with the original shard count)",
					rec.ID, rec.Shard, s.cfg.ShardIndex)
			}
			jr.submit = rec
			order = append(order, rec.ID)
			if tail, ok := strings.CutPrefix(rec.ID, s.idPrefix()); ok {
				if n, err := strconv.Atoi(tail); err == nil && n > maxSeq {
					maxSeq = n
				}
			}
		case JournalDone:
			jr.done = rec
		case JournalCancel:
			jr.cancel = rec
		case JournalAdmit, JournalDegrade:
			// Informational: re-execution re-derives admission order and
			// degradation from the spec + seed.
		default:
			return rs, fmt.Errorf("jobserver: journal has unknown op %q for %s", rec.Op, rec.ID)
		}
	}
	s.seq = maxSeq + 1
	s.recovering = true
	defer func() { s.recovering = false }()
	for _, id := range order {
		jr := byID[id]
		switch {
		case jr.submit == nil:
			// Unreachable given the order slice, but keeps the switch total.
		case jr.done != nil:
			s.restoreTerminal(id, jr.submit, jr.done)
			rs.Terminal++
		case jr.cancel != nil:
			// The client asked for a kill that the crash delivered. Honor
			// it instead of resurrecting the job, and write the terminal
			// record the dying daemon never got to.
			st := &JobState{
				ID:       id,
				Spec:     *jr.submit.Spec,
				Status:   StatusCanceled,
				Err:      "jobserver: canceled (finalized during crash recovery)",
				SubmitVT: jr.submit.SubmitVT,
				EndVT:    jr.cancel.EndVT,
			}
			s.installRestored(st)
			s.journalTerminal(st)
			rs.Canceled++
		default:
			s.submitRecovered(id, *jr.submit.Spec)
			rs.Requeued++
		}
	}
	if err := s.journalCommit(); err != nil {
		return rs, err
	}
	return rs, nil
}

// restoreTerminal installs a completed job exactly as journaled.
func (s *Service) restoreTerminal(id string, sub, done *JournalRecord) {
	st := &JobState{
		ID:       id,
		Spec:     *sub.Spec,
		Status:   done.Status,
		SubmitVT: done.SubmitVT,
		StartVT:  done.StartVT,
		EndVT:    done.EndVT,
		Err:      done.Err,
	}
	if done.Result != nil {
		st.Result = done.Result.Restore()
		// The terminal frame, so streams opened against a restored job
		// converge to its final outputs just like live ones.
		st.frames = []*encFrame{newJobFrame(0, st.Result.Runtime, st.Status, st.Status == StatusDone, st.Result.Outputs)}
	}
	s.installRestored(st)
}

// installRestored publishes a recovered terminal state: visible to
// readers, counted in stats, and holding its idempotency key so
// post-restart duplicate submissions still dedupe to the original run.
func (s *Service) installRestored(st *JobState) {
	if k := st.Spec.IdempotencyKey; k != "" {
		if _, ok := s.idemp[k]; !ok {
			s.idemp[k] = st.ID
		}
	}
	s.mu.Lock()
	s.states[st.ID] = st
	s.order = append(s.order, st.ID)
	switch st.Status {
	case StatusDone:
		s.nDone++
	case StatusFailed:
		s.nFailed++
	case StatusCanceled:
		s.nCanceled++
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// submitRecovered re-admits one incomplete journaled job under its
// original id. The spec validated at original submit time, but the
// build is repeated — a spec that no longer builds (say, an app renamed
// between daemon versions) becomes a failed job, not a recovery abort.
func (s *Service) submitRecovered(id string, spec JobSpec) {
	job, err := spec.Build(s.cfg.Workers)
	if err == nil && job.Reduces > s.eng.TotalSlots(cluster.ReduceSlot) {
		err = fmt.Errorf("jobserver: spec wants %d reduces but the cluster has %d reduce slots", job.Reduces, s.eng.TotalSlots(cluster.ReduceSlot))
	}
	if err != nil {
		st := &JobState{ID: id, Spec: spec, Status: StatusFailed, Err: err.Error()}
		s.installRestored(st)
		s.journalTerminal(st)
		return
	}
	s.enqueue(spec, job, id)
}

// JobInfo returns a copy of one job's state; the Result it points at is
// immutable once published. Safe from any goroutine.
func (s *Service) JobInfo(id string) (JobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.states[id]
	if !ok {
		return JobState{}, false
	}
	return *st, true
}

// Jobs returns every job's state in submission order.
func (s *Service) Jobs() []JobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobState, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.states[id])
	}
	return out
}

// Stats is the service-level dashboard snapshot.
type Stats struct {
	Policy      string  `json:"policy"`
	VirtualNow  float64 `json:"virtualNow"`
	EnergyWh    float64 `json:"energyWh"`
	Active      int     `json:"active"`
	Queued      int     `json:"queued"`
	Submitted   int     `json:"submitted"`
	Done        int     `json:"done"`
	Failed      int     `json:"failed"`
	Canceled    int     `json:"canceled"`
	Rejected    int     `json:"rejected"`
	MapSlots    int     `json:"mapSlots"`
	ReduceSlots int     `json:"reduceSlots"`
	Draining    bool    `json:"draining,omitempty"`
	Journaled   bool    `json:"journaled,omitempty"`
	// Shards is the fleet size when the stats are a fleet aggregate
	// (Fleet.Stats); a bare Service reports 0.
	Shards int `json:"shards,omitempty"`
}

// Stats reports current service counters. The engine fields (virtual
// time, energy) are only consistent when sampled on the goroutine
// driving the engine — Fleet.Stats routes there; the mu-guarded
// counters are exact from anywhere.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Policy:      s.cfg.Policy.String(),
		VirtualNow:  s.eng.Now(),
		EnergyWh:    s.eng.EnergyWh(),
		Active:      len(s.active),
		Queued:      len(s.queue),
		Submitted:   len(s.order),
		Done:        s.nDone,
		Failed:      s.nFailed,
		Canceled:    s.nCanceled,
		Rejected:    s.nRejected,
		MapSlots:    s.eng.TotalSlots(cluster.MapSlot),
		ReduceSlots: s.eng.TotalSlots(cluster.ReduceSlot),
		Draining:    s.draining,
		Journaled:   s.journal != nil,
	}
}

// Replay runs a whole submission trace to completion synchronously on
// the calling goroutine: every spec is scheduled at its SubmitAt
// offset on the virtual clock (sorted via SortTrace first), the engine
// runs until idle, and the final states come back in sorted-trace
// order. Because admission, scheduling, and completion all happen in
// virtual-time order on one goroutine, the same trace yields
// byte-identical per-job results no matter how the specs were
// gathered or how many pool workers execute map compute.
func (s *Service) Replay(specs []JobSpec) []JobState {
	ordered := SortTrace(specs)
	base := s.eng.Now()
	ids := make([]string, len(ordered))
	errs := make([]error, len(ordered))
	for i := range ordered {
		i := i
		spec := ordered[i]
		s.eng.At(base+spec.SubmitAt, func() {
			ids[i], errs[i] = s.Submit(spec)
		})
	}
	s.eng.Run()
	out := make([]JobState, len(ordered))
	for i := range ordered {
		if errs[i] != nil {
			out[i] = JobState{Spec: ordered[i], Status: StatusRejected, Err: errs[i].Error(), SubmitVT: base + ordered[i].SubmitAt}
			continue
		}
		st, _ := s.JobInfo(ids[i])
		out[i] = st
	}
	return out
}
