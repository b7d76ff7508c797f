package stream

import (
	"math/rand"
	"testing"
)

// eagerAdmit is Algorithm R as the reservoir ran it before the source
// was deferred: math/rand's own generator, seeded at construction.
type eagerAdmit struct {
	cap, n int
	seen   int64
	rng    *rand.Rand
}

func (e *eagerAdmit) admit() int {
	e.seen++
	if e.n < e.cap {
		e.n++
		return e.n - 1
	}
	if j := e.rng.Int63n(e.seen); j < int64(e.cap) {
		return int(j)
	}
	return -1
}

// TestReservoirDefersSource: a stratum that never outgrows its
// reservoir draws nothing, so it must not pay for a source; one that
// does must admit exactly the slots an eagerly seeded one admits.
func TestReservoirDefersSource(t *testing.T) {
	for _, tc := range []struct {
		cap, offered int
		seed         int64
	}{{1, 50, 1}, {8, 8, 2}, {8, 9, 3}, {64, 5000, 4}, {256, 300, stratumSeed(7, 3, fnv1a([]byte("/index")))}} {
		r := newReservoir(tc.cap, tc.seed)
		ref := &eagerAdmit{cap: tc.cap, rng: rand.New(rand.NewSource(tc.seed))}
		for i := 1; i <= tc.offered; i++ {
			if i <= tc.cap && r.rng != nil {
				t.Fatalf("cap %d: source built at record %d, before any draw", tc.cap, i)
			}
			if got, want := r.admit(), ref.admit(); got != want {
				t.Fatalf("cap %d seed %d record %d: slot %d, eager reference %d", tc.cap, tc.seed, i, got, want)
			}
		}
		if overflowed := tc.offered > tc.cap; (r.rng != nil) != overflowed {
			t.Errorf("cap %d, %d offered: source built = %v", tc.cap, tc.offered, r.rng != nil)
		}
	}

	// An under-capacity stratum allocates the reservoir and its value
	// slice as it grows (1, 2, 4, 8 floats); the record that overflows
	// it adds the source, nothing sooner, and the source adds its
	// register only at its 17th draw.
	var kept *reservoir
	offer := func(n int) func() {
		return func() {
			kept = newReservoir(8, 9)
			for i := 0; i < n; i++ {
				kept.admit()
			}
		}
	}
	under, over, drawn := int(testing.AllocsPerRun(100, offer(8))), int(testing.AllocsPerRun(100, offer(9))), int(testing.AllocsPerRun(100, offer(8+17)))
	if under != 5 || over != 6 || drawn != 7 {
		t.Errorf("allocations per stratum: %v at capacity, %v one past it, %v seventeen past it; want 5, 6 and 7", under, over, drawn)
	}

	// A reservoir a closed window left behind is reset, not rebuilt: it
	// must admit the slots a new one would — its source re-seeded at the
	// first draw, wherever the last stratum left it — and allocate
	// nothing while it fits its old buffer.
	used := newReservoir(8, 9)
	for _, tc := range []struct {
		cap, offered int
		seed         int64
	}{{8, 700, 9}, {8, 8, 10}, {4, 300, 11}, {8, 9, 12}, {8, 40, 9}} {
		used.reset(tc.cap, tc.seed)
		ref := &eagerAdmit{cap: tc.cap, rng: rand.New(rand.NewSource(tc.seed))}
		for i := 1; i <= tc.offered; i++ {
			if got, want := used.admit(), ref.admit(); got != want {
				t.Fatalf("reset to cap %d seed %d, record %d: slot %d, eager reference %d", tc.cap, tc.seed, i, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		used.reset(8, 13)
		for i := 0; i < 50; i++ {
			used.admit()
		}
	}); n != 0 {
		t.Errorf("a reset reservoir allocated %v times over 50 records, want 0", n)
	}
}
