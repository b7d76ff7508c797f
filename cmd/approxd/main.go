// Command approxd serves the multi-tenant ApproxHadoop job service
// over HTTP/JSON: many jobs share one simulated cluster, map slots are
// arbitrated FIFO or weighted fair-share, and running jobs stream
// early-result snapshots whose confidence intervals narrow wave by
// wave.
//
// With -journal the daemon is crash-safe: every accepted submission is
// fsynced to an append-only JSONL write-ahead log before it is
// acknowledged, and on startup the journal is replayed — completed
// jobs are restored verbatim, interrupted ones are re-admitted in
// their original order and re-executed bit-identically from their
// recorded spec + seed. SIGTERM drains gracefully: new submissions get
// 503 + Retry-After, running jobs finish, queued jobs stay journaled
// for the next boot.
//
// With -shards N the daemon hosts a fleet of N independent engine
// shards, each with its own virtual clock and journal segment; jobs
// are placed by consistent hashing on the spec's placement key
// (tenant, then idempotency key, then name), so a tenant's jobs land
// on one shard and the fleet scales submission throughput without
// perturbing any job's deterministic result. Restart a sharded
// daemon with the same -shards count — recovery refuses journal
// segments that would re-place recovered jobs.
//
// Usage:
//
//	approxd                                  # FIFO on 127.0.0.1:7070
//	approxd -policy fair -max-active 16
//	approxd -journal /var/lib/approxd/wal.jsonl
//	approxd -shards 4 -tenant-quota 4        # 4-engine fleet, <=4 in-flight
//	                                         # jobs per tenant
//
// API (see internal/jobserver):
//
//	POST   /v1/jobs               submit a JobSpec, returns {"id": ...}
//	GET    /v1/jobs               list all jobs
//	GET    /v1/jobs/{id}          one job's state
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/jobs/{id}/result   final result
//	GET    /v1/jobs/{id}/stream   early-result stream (?from=N resumes; JSONL,
//	                              or binary frames with
//	                              Accept: application/x-approx-frame)
//	POST   /v1/replay             run a whole []JobSpec trace
//	GET    /v1/stats              service counters
//	GET    /healthz               liveness (503 after a journal failure)
//	GET    /readyz                readiness (503 while draining)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"approxhadoop/internal/jobserver"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "listen address")
		policy     = flag.String("policy", "fifo", "map-slot arbitration between jobs: fifo | fair")
		maxActive  = flag.Int("max-active", 8, "max concurrently running jobs")
		maxQueue   = flag.Int("max-queue", 64, "admission queue depth before 429s")
		snapshot   = flag.Float64("snapshot-every", 40, "virtual seconds between streamed snapshots (<0 disables)")
		workers    = flag.Int("workers", 0, "per-job map-compute pool size (0 = GOMAXPROCS); results are identical for any value")
		shards     = flag.Int("shards", 1, "engine-fleet size; jobs are placed by consistent hashing on tenant/key/name")
		quota      = flag.Int("tenant-quota", 0, "max in-flight jobs per tenant across the fleet (0 = unlimited)")
		maxLag     = flag.Int("max-lag", 0, "slow-subscriber drop threshold in frames (0 = default 256; negative disables dropping)")
		journal    = flag.String("journal", "", "write-ahead journal path; enables crash-safe recovery (empty = off; sharded daemons keep one segment per shard)")
		grace      = flag.Duration("grace", 10*time.Second, "SIGTERM drain grace for running jobs")
		reqTimeout = flag.Duration("request-timeout", 10*time.Second, "per-request timeout for quick endpoints (negative disables)")
		maxBody    = flag.Int64("max-body", 0, "max POST body bytes (0 = 4 MiB default)")
	)
	flag.Parse()

	pol, err := jobserver.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "approxd: %v\n", err)
		os.Exit(2)
	}
	err = jobserver.Serve(jobserver.ServeConfig{
		Addr: *addr,
		Service: jobserver.Config{
			Policy:        pol,
			MaxActive:     *maxActive,
			MaxQueue:      *maxQueue,
			Workers:       *workers,
			SnapshotEvery: *snapshot,
			TenantQuota:   *quota,
		},
		Shards:         *shards,
		MaxLag:         *maxLag,
		JournalPath:    *journal,
		Grace:          *grace,
		RequestTimeout: *reqTimeout,
		MaxBody:        *maxBody,
		OnReady: func(addr string, _ *jobserver.Daemon) {
			fmt.Fprintf(os.Stderr, "approxd: serving on %s (policy %s, %d shard(s), %d active / %d queued max per shard)\n",
				addr, pol, max(*shards, 1), *maxActive, *maxQueue)
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "approxd: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "approxd: %v\n", err)
		os.Exit(1)
	}
}
