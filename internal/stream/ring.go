package stream

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Stage 1 hands stage 2 its records in batches of batchLen, through a
// ring of ringDepth batches: stage 1 fills one while stage 2 folds
// another, and a third absorbs the jitter between them. A run never
// holds more than the ring, so the source runs at most ringDepth
// batches ahead of the folds.
const (
	batchLen  = 4096
	ringDepth = 3
)

// errStopSource ends the source's Run once stage 2 has stopped.
var errStopSource = errors.New("stream: pipeline stopped")

// routed is one record as stage 1 routes it: its time, its stratum key,
// and the ends of its line and stratum label in the batch's bytes, the
// line starting where the previous record's label ends. A record
// Stratify drops has lineEnd dropped and no bytes.
type routed struct {
	t                 float64
	key               uint64
	lineEnd, stratEnd int32
}

// dropped is the lineEnd of a record Stratify dropped.
const dropped = -1

// batch is a run of routed records and the bytes they point into. The
// source's last batch carries what its Run returned.
type batch struct {
	recs  []routed
	bytes []byte
	last  bool
	err   error
}

// ring is the pair of queues between the stages: free batches go to
// stage 1, full ones to stage 2, each queue deep enough to hold every
// batch so that neither side blocks on a send. A ring outlives its run
// in rings, so a warm run allocates no batch.
type ring struct {
	free, full chan *batch
	stop       atomic.Bool // stage 2 has stopped: stage 1 ends the source

	// Stage 2's side.
	held  *batch // the batch being folded
	ended bool   // the source's last batch has been taken
}

var rings = sync.Pool{New: func() any {
	r := &ring{free: make(chan *batch, ringDepth), full: make(chan *batch, ringDepth)}
	for range ringDepth {
		r.free <- &batch{recs: make([]routed, 0, batchLen)}
	}
	return r
}}

// startRing takes a ring and starts stage 1 on it: a goroutine that
// runs src and routes each of its records for q.
func startRing(src Source, q Query) *ring {
	r := rings.Get().(*ring)
	r.stop.Store(false)
	r.ended = false
	go r.produce(src, q)
	return r
}

// produce is stage 1. It routes each record the source yields into the
// batch it fills: stratum key, a copy of the line when the query reads
// values from it, and a copy of the label when the query has no buckets
// to name the stratum by. A record Stratify drops takes its slot too,
// so the source runs at most one ring of its own records ahead of the
// folds, whatever Stratify makes of them.
//
//approx:hotpath
func (r *ring) produce(src Source, q Query) {
	b := <-r.free
	err := src.Run(func(t float64, line []byte) error {
		if r.stop.Load() {
			return errStopSource
		}
		rec := routed{t: t, lineEnd: dropped, stratEnd: int32(len(b.bytes))}
		if key, strat, ok := q.route(line); ok {
			if q.Op != OpCount {
				b.bytes = append(b.bytes, line...)
			}
			rec.key, rec.lineEnd = key, int32(len(b.bytes))
			b.bytes = append(b.bytes, strat...)
			rec.stratEnd = int32(len(b.bytes))
		}
		b.recs = append(b.recs, rec)
		if len(b.recs) == batchLen {
			r.full <- b
			b = <-r.free
		}
		return nil
	})
	b.last, b.err = true, err
	r.full <- b
}

// route stratifies one record and hashes its label to the stratum key,
// the bucket when the query has buckets. The label is returned only
// when the query has none; ok is false for a record Stratify drops.
func (q *Query) route(line []byte) (key uint64, strat []byte, ok bool) {
	strat = q.Stratify(line)
	if strat == nil {
		return 0, nil, false
	}
	key = fnv1a(strat)
	if q.Buckets > 0 {
		return key % uint64(q.Buckets), nil, true
	}
	return key, strat, true
}

// take returns the batch stage 2 held to the free queue and hands it
// the next full one.
func (r *ring) take() *batch {
	r.put()
	r.held = <-r.full
	r.ended = r.held.last
	return r.held
}

// put empties the batch stage 2 holds into the free queue.
func (r *ring) put() {
	if b := r.held; b != nil {
		b.recs, b.bytes, b.last, b.err = b.recs[:0], b.bytes[:0], false, nil
		r.free <- b
		r.held = nil
	}
}

// close stops stage 1, waits for the source's last batch — the source's
// Run has returned once it arrives — and pools the ring with every
// batch back in its free queue.
func (r *ring) close() {
	r.stop.Store(true)
	for !r.ended {
		r.take()
	}
	r.put()
	rings.Put(r)
}
