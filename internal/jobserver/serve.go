package jobserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ServeConfig configures Serve, the crash-safe daemon front end shared
// by cmd/approxd and the chaos harness (which must boot the exact
// production path it kills).
type ServeConfig struct {
	// Addr is the listen address (":0" picks an ephemeral port; OnReady
	// learns the real one).
	Addr string
	// Service configures the underlying Service (each shard gets a
	// copy; see Shards).
	Service Config
	// Shards is the engine-fleet size (0 or 1 = the classic standalone
	// daemon). Each shard is an independent engine with its own virtual
	// clock and journal segment; jobs are placed by consistent hashing
	// on JobSpec.PlacementKey. Restart with the same count — recovery
	// refuses journal segments that would re-place recovered jobs.
	Shards int
	// JournalPath, when non-empty, opens (creating if absent) the
	// write-ahead journal there and recovers any previous life's jobs
	// before serving traffic. A sharded daemon keeps one segment per
	// shard: shard 0 uses the path verbatim (so a 1-shard fleet is
	// journal-compatible with the pre-fleet daemon), shard i uses
	// "<path>.shard<i>".
	JournalPath string
	// Grace bounds how long a SIGTERM/SIGINT drain waits for running
	// jobs before giving up and relying on the journal (default 10s).
	Grace time.Duration
	// RequestTimeout bounds quick HTTP endpoints (default 10s; negative
	// disables). Streams and replays are exempt — see Daemon.Handler.
	RequestTimeout time.Duration
	// MaxBody bounds POST request bodies (default 4 MiB).
	MaxBody int64
	// OnReady, if set, runs once the listener is accepting; addr is the
	// bound address.
	OnReady func(addr string, d *Daemon)
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// shardJournalPath is shard i's journal segment path: shard 0 keeps
// the configured path exactly (pre-fleet compatibility), later shards
// get a ".shard<i>" suffix.
func shardJournalPath(path string, i int) string {
	if i == 0 {
		return path
	}
	return fmt.Sprintf("%s.shard%d", path, i)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// closeServices closes already-built services during an aborted boot
// (committing and closing any journals they hold).
func closeServices(svcs []*Service) {
	for _, svc := range svcs {
		if svc != nil {
			svc.Close()
		}
	}
}

// Serve runs the daemon to completion: open and replay the journal,
// re-admit interrupted work, listen, serve, and on SIGTERM/SIGINT
// drain gracefully — new submissions get 503 + Retry-After, running
// jobs finish within the grace, queued jobs stay journaled for the
// next boot — then flush and exit. It returns once the listener is
// closed and every journaled byte is durable.
func Serve(cfg ServeConfig) error {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 10 * time.Second
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}

	shardCfgs := ShardConfigs(cfg.Service, cfg.Shards)
	if cfg.JournalPath != "" {
		// A segment for shard len(shardCfgs) means a previous life ran
		// with more shards: booting smaller would silently orphan its
		// jobs. Refuse before touching any journal.
		if orphan := shardJournalPath(cfg.JournalPath, len(shardCfgs)); fileExists(orphan) {
			return fmt.Errorf("jobserver: journal segment %s exists but this boot has only %d shard(s); restart with the original shard count", orphan, len(shardCfgs))
		}
	}
	svcs := make([]*Service, len(shardCfgs))
	for i, scfg := range shardCfgs {
		svc := New(scfg)
		if cfg.JournalPath != "" {
			path := shardJournalPath(cfg.JournalPath, i)
			j, recs, err := OpenJournal(path)
			if err != nil {
				closeServices(svcs[:i])
				return err
			}
			svc.UseJournal(j)
			// Recovery runs before the driver goroutine exists, so the
			// engine-goroutine-only methods are safe here by construction.
			rs, err := svc.Recover(recs)
			if err != nil {
				closeServices(svcs[:i])
				if cerr := j.Close(); cerr != nil {
					return fmt.Errorf("%w (and journal close failed: %v)", err, cerr)
				}
				return err
			}
			if rs.Terminal+rs.Requeued+rs.Canceled > 0 {
				logf("journal %s: restored %d completed, re-admitted %d interrupted, finalized %d canceled",
					path, rs.Terminal, rs.Requeued, rs.Canceled)
			}
		}
		svcs[i] = svc
	}

	d := NewFleetDaemon(svcs, false)
	d.RequestTimeout = cfg.RequestTimeout
	d.MaxBody = cfg.MaxBody

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		d.Stop()
		return err
	}
	srv := &http.Server{
		Handler: d.Handler(),
		// Slowloris guard; full-request reads are bounded per endpoint
		// by MaxBytesReader + TimeoutHandler instead of a blanket
		// ReadTimeout, which would kill long-lived streams.
		ReadHeaderTimeout: 5 * time.Second,
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigs)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logf("listening on %s", ln.Addr())
	if cfg.OnReady != nil {
		cfg.OnReady(ln.Addr().String(), d)
	}

	select {
	case err := <-serveErr:
		d.Stop()
		return err
	case sig := <-sigs:
		logf("%v: draining (grace %s)", sig, cfg.Grace)
		if d.Drain(cfg.Grace) {
			logf("drain complete: running jobs finished, queued jobs stay journaled for the next boot")
		} else {
			logf("drain grace expired with jobs still running; the journal re-executes them on restart")
		}
		// Stop the driver and close the journal first: Service.Close
		// broadcasts to every stream waiter, so in-flight stream
		// handlers observe the shutdown and return, letting Shutdown's
		// in-flight-handler wait below actually finish.
		d.Stop()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := srv.Shutdown(sctx)
		cancel()
		<-serveErr // srv.Serve has returned http.ErrServerClosed
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				logf("shutdown timed out waiting for in-flight requests; exiting anyway")
				return nil
			}
			return err
		}
		logf("shutdown complete")
		return nil
	}
}
