package stats

import (
	"math"
	"sync"
)

// An outcomeTable tabulates a function of one uniform draw r that is
// piecewise constant between breakpoints known in exact arithmetic:
// piece i covers the draws starts[i] <= r < starts[i+1] and its code is
// outs[i], or outcomeExact where the sampler must run the function's own
// arithmetic. guide[slot] is the piece holding the slot's smallest r;
// how a draw maps to its slot is the sampler's. zipfTable and
// paretoTable each embed one; a table is immutable once built.
type outcomeTable struct {
	starts []float64 // one sentinel above 1 past the last piece
	outs   []int32
	guide  []uint32
}

// outcomeExact is the code of a guard band, and of a piece whose two ends
// and midpoint disagree: the sampler computes such a draw exactly.
const outcomeExact = -2

// cut fills t with the pieces of [from, 1). bs are the breakpoints,
// ascending; band(b) is the half-width of the band around b that is
// marked outcomeExact, wide enough to hold every point near b where the
// computed function switches. Each piece between bands takes the code
// its two ends and its midpoint agree on, or outcomeExact if they do
// not. Adjacent pieces of one code merge.
func (t *outcomeTable) cut(from float64, bs []float64, band func(b float64) float64, code func(r float64) int32) {
	piece := func(lo, hi float64) {
		a, m, b := code(lo), code(lo+float64((hi-lo)/2)), code(math.Nextafter(hi, 0))
		if a != m || m != b {
			a = outcomeExact
		}
		t.add(lo, a)
	}
	pos := from // where the next piece starts
	for _, b := range bs {
		w := band(b)
		if lo := b - w; lo > pos {
			if lo >= 1 {
				break
			}
			piece(pos, lo)
			pos = lo
		}
		if hi := b + w; hi > pos {
			t.add(pos, outcomeExact)
			pos = hi
		}
	}
	if pos < 1 {
		piece(pos, 1)
	}
	t.starts = append(t.starts, 2)
}

func (t *outcomeTable) add(start float64, out int32) {
	if len(t.outs) > 0 && t.outs[len(t.outs)-1] == out {
		return
	}
	t.starts = append(t.starts, start)
	t.outs = append(t.outs, out)
}

// fillGuide builds a guide of slots entries, slot s starting at
// slotStart(s), over the pieces cut has made.
func (t *outcomeTable) fillGuide(slots int, slotStart func(slot int) float64) {
	t.guide = make([]uint32, slots)
	i := 0
	for slot := range t.guide {
		for t.starts[i+1] <= slotStart(slot) {
			i++
		}
		t.guide[slot] = uint32(i)
	}
}

// from returns the code of the piece holding r, stepping up from piece i
// (a guide entry at or below r's piece).
//
//approx:hotpath
func (t *outcomeTable) from(i uint32, r float64) int32 {
	for t.starts[i+1] <= r {
		i++
	}
	return t.outs[i]
}

// A tableCache holds one table per key for the process, built on first
// use; goroutines that race to build one all get the one stored.
type tableCache[K comparable, T any] struct {
	m     sync.Map
	build func(K) *T
}

func (c *tableCache[K, T]) get(key K) *T {
	if t, ok := c.m.Load(key); ok {
		return t.(*T)
	}
	t, _ := c.m.LoadOrStore(key, c.build(key))
	return t.(*T)
}
