package jobserver

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClosed is returned for operations on a stopped daemon.
var ErrClosed = errors.New("jobserver: daemon stopped")

// Daemon runs a fleet of engine shards behind driver goroutines: HTTP
// handlers never touch a virtual timeline directly, they post closures
// to the owning shard's mailbox. Each shard's virtual-time plane stays
// single-threaded even though submissions arrive concurrently over the
// network, and the shards run genuinely in parallel — a single daemon
// process scales across cores by adding shards, not threads per engine.
//
// A job is admitted one way: Fleet.Submit places it on its shard,
// whose driver validates it, checks drain, queue depth and tenant
// quota, and, when journaled, fsyncs its submit record before the id
// is returned. It starts at whatever virtual instant the request
// reaches the driver, so wall-clock arrival order leaks into the
// timeline; the /v1/replay endpoint runs a whole trace sorted by
// (SubmitAt, Name) instead, byte-identical however it was gathered.
type Daemon struct {
	fleet *Fleet
	// streams is the continuous-query registry. Streams live outside
	// the driver goroutines: their pipelines never touch a shared
	// engine's virtual timeline (see streams.go), so they need none of
	// the mailbox discipline batch jobs do.
	streams *StreamSet
	once    sync.Once

	// RequestTimeout bounds quick HTTP endpoints via
	// http.TimeoutHandler (0 = unlimited); MaxBody bounds POST request
	// bodies via http.MaxBytesReader (0 = the 4 MiB default). Set both
	// before Handler is called; see Handler for the exempt endpoints.
	RequestTimeout time.Duration
	MaxBody        int64
}

// NewFleetDaemon starts one driver goroutine per service — one service
// is the standalone daemon, still the default; several come from New
// over ShardConfigs. Services must be freshly built or recovered
// (Recover run, no driver yet); svcs[0]'s config supplies the
// fleet-wide knobs (stream registry sizing, tenant quota). The bool is
// ignored: it is kept for bench/, and goes at ROADMAP item 7(e)'s
// unfreeze (it was the removed hold mode's switch).
func NewFleetDaemon(svcs []*Service, _ bool) *Daemon {
	cfg := svcs[0].cfg
	return &Daemon{
		fleet:   NewFleet(svcs, cfg.TenantQuota),
		streams: NewStreamSet(cfg.MaxActive),
	}
}

// ShardConfigs expands cfg into per-shard configs: each shard gets a
// distinct id prefix ("job-s2-") and its shard index; a count of one
// keeps cfg untouched, so a 1-shard fleet is bit-compatible with the
// pre-fleet daemon (ids, journals, everything).
func ShardConfigs(cfg Config, shards int) []Config {
	if shards <= 1 {
		return []Config{cfg}
	}
	out := make([]Config, shards)
	for i := range out {
		out[i] = cfg
		out[i].IDPrefix = fmt.Sprintf("job-s%d-", i)
		out[i].ShardIndex = i
	}
	return out
}

// Streams returns the continuous-query registry.
func (d *Daemon) Streams() *StreamSet { return d.streams }

// Service returns shard 0's service — the only shard of a standalone
// daemon (read-only methods are safe from any goroutine).
func (d *Daemon) Service() *Service { return d.fleet.Shard(0) }

// Fleet returns the shard router.
func (d *Daemon) Fleet() *Fleet { return d.fleet }

// do runs fn on shard 0's driver goroutine and waits for it (test
// hook; fleet-aware callers route through Fleet methods).
func (d *Daemon) do(fn func()) error {
	return d.fleet.shards[0].do(fn)
}

// Stop shuts every shard driver down and wakes every stream waiter.
// Running continuous queries are stopped at their next window.
func (d *Daemon) Stop() {
	d.once.Do(func() {
		d.streams.Close()
		d.fleet.Close()
	})
}

// Drain begins a graceful shutdown: new submissions fail with
// ErrDraining (HTTP 503 + Retry-After), queued jobs stop being
// admitted — their journaled submit records carry them to the next
// boot — and running jobs get up to grace wall-clock time to finish
// (virtual time runs as fast as the drivers can pump it, so this is
// normally milliseconds). It returns true when every shard went quiet,
// false on grace expiry; either way buffered journal records have been
// committed. Call Stop afterwards.
func (d *Daemon) Drain(grace time.Duration) bool {
	d.fleet.StartDrain()
	deadline := time.Now().Add(grace)
	finished := false
	for {
		active, err := d.fleet.ActiveTotal()
		if err != nil {
			return true // drivers already stopped, nothing is running
		}
		if active == 0 {
			finished = true
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Group-commit whatever the drain produced (terminal records for
	// jobs that finished, nothing for the still-queued) so the journals
	// are durable even if the process is killed before Stop.
	d.fleet.Quiesce()
	return finished
}

// Submit admits one job through Fleet.Submit. The middle result is
// always 0: the signature is kept for bench/, and goes at ROADMAP item
// 7(e)'s unfreeze (it was the removed hold mode's buffer depth).
func (d *Daemon) Submit(spec JobSpec) (id string, _ int, err error) {
	id, err = d.fleet.Submit(spec)
	return id, 0, err
}
