// Closed-loop load generation against a live daemon, on approxctl's
// own client: its retry rule, poll loop and resumable stream reader.
//
// Wall-clock time is correct here by design: loadgen measures the
// daemon process from outside, where real seconds are the unit — the
// virtual clock belongs to the engines on the other side of the HTTP
// boundary.
package main

import (
	"errors"
	"flag"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"approxhadoop/internal/jobserver"
	"approxhadoop/internal/wire"
)

// loadgen holds one closed-loop run's settings, a field per flag.
type loadgen struct {
	n, clients, tenants int
	seed                int64
	watch, binary       bool
	timeout             time.Duration
}

// loadReport is a closed-loop run's measurement. The client's bounced
// and streamed counters complete it.
type loadReport struct {
	Ops    int // ops that reached a terminal state in time
	Errors int // ops abandoned: submit refused, transport failure or timeout
	Frames int // stream frames read while watching
	Wall   time.Duration
	// Submits (POST acknowledged) and Completes (submit start to
	// terminal state observed) are per-op latencies in milliseconds.
	Submits, Completes []float64
}

// run pulls lg.n ops through lg.clients concurrent closed loops; each
// client takes the next op number from one shared counter.
func (lg loadgen) run(c *client) loadReport {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		rep  loadReport
	)
	start := time.Now()
	for i := 0; i < lg.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				op := int(next.Add(1)) - 1
				if op >= lg.n {
					return
				}
				t0 := time.Now()
				id, err := c.submit(jobserver.LoadSpec(lg.seed, op, lg.tenants))
				submitted, submit := err == nil, msSince(t0)
				frames := 0
				if submitted {
					frames, err = lg.follow(c, id, t0.Add(lg.timeout))
				}
				complete := msSince(t0)

				mu.Lock()
				rep.Frames += frames
				if submitted {
					rep.Submits = append(rep.Submits, submit)
				}
				if err != nil {
					rep.Errors++
				} else {
					rep.Ops++
					rep.Completes = append(rep.Completes, complete)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.Wall = time.Since(start)
	return rep
}

// follow observes job id to its terminal state, by its frame stream
// when watching and by polling otherwise, and returns the frames read.
// The deadline is checked on every frame.
func (lg loadgen) follow(c *client, id string, deadline time.Time) (frames int, err error) {
	if !lg.watch {
		_, err = c.waitTerminal(id, deadline)
		return 0, err
	}
	err = c.streamLoop(id, lg.binary, func(f *wire.JobFrame) error {
		frames++
		if !jobserver.JobStatus(f.Status).Terminal() && time.Now().After(deadline) {
			return fmt.Errorf("stream for %s still open at deadline", id)
		}
		return nil
	})
	return frames, err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// percentiles returns p50/p95/p99/max by nearest rank over a copy.
func percentiles(samples []float64) (p50, p95, p99, max float64) {
	if len(samples) == 0 {
		return 0, 0, 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := func(p float64) float64 {
		i := int(p*float64(len(s))+0.999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return rank(0.50), rank(0.95), rank(0.99), s[len(s)-1]
}

// cmdLoadgen drives the daemon with a closed-loop benchmark: -clients
// concurrent loops each run submit -> observe-terminal -> next until
// -n ops complete, and the report carries sustained QPS plus submit
// and completion latency percentiles. -watch follows each job's
// snapshot stream instead of polling (-wire negotiates the binary
// frame format); -max-p99 turns the run into a pass/fail gate for CI.
func cmdLoadgen(c *client, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var lg loadgen
	fs.IntVar(&lg.n, "n", 20, "total jobs to pull through the closed loop")
	fs.IntVar(&lg.clients, "clients", 4, "concurrent closed-loop clients")
	fs.Int64Var(&lg.seed, "seed", 42, "spec sequence seed")
	fs.IntVar(&lg.tenants, "tenants", 8, "distinct tenant identities (placement keys)")
	fs.BoolVar(&lg.watch, "watch", false, "follow each job's snapshot stream to its terminal frame")
	fs.BoolVar(&lg.binary, "wire", false, "with -watch: negotiate the binary frame format")
	maxP99 := fs.Float64("max-p99", 0, "fail if completion p99 exceeds this many ms (0 = report only)")
	fs.DurationVar(&lg.timeout, "timeout", time.Minute, "wall-clock budget per op")
	//lint:ignore errcheck ExitOnError flag sets never return an error
	_ = fs.Parse(args)
	if lg.n <= 0 || lg.clients <= 0 || lg.timeout <= 0 {
		return errors.New("loadgen: -n, -clients and -timeout must be positive")
	}

	rep := lg.run(c)
	wall := rep.Wall.Seconds()
	fmt.Printf("loadgen: %d ops, %d clients, %.2f s wall, %.1f ops/s\n",
		rep.Ops, lg.clients, wall, float64(rep.Ops)/wall)
	p50, p95, p99, pmax := percentiles(rep.Submits)
	fmt.Printf("  submit   p50 %.1f ms  p95 %.1f ms  p99 %.1f ms  max %.1f ms\n", p50, p95, p99, pmax)
	p50, p95, p99, pmax = percentiles(rep.Completes)
	fmt.Printf("  complete p50 %.1f ms  p95 %.1f ms  p99 %.1f ms  max %.1f ms\n", p50, p95, p99, pmax)
	if rep.Frames > 0 {
		fmt.Printf("  streamed %d frames, %d bytes\n", rep.Frames, c.streamed.Load())
	}
	if n := c.bounced.Load(); n > 0 {
		fmt.Printf("  %d submissions bounced (429/503) and were retried\n", n)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("loadgen: %d of %d ops failed", rep.Errors, rep.Errors+rep.Ops)
	}
	if *maxP99 > 0 && p99 > *maxP99 {
		return fmt.Errorf("loadgen: completion p99 %.1f ms exceeds bound %.1f ms", p99, *maxP99)
	}
	return nil
}
