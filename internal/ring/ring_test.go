package ring

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%04d", i)
	}
	return out
}

// Placement must be a pure function of (seed, member set, key):
// rebuilding the ring — even with members inserted in a different
// order — routes every key identically.
func TestDeterministicPlacement(t *testing.T) {
	build := func(order []string) *Ring {
		r := New(7, 0)
		for _, m := range order {
			r.Add(m)
		}
		return r
	}
	members := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	a := build(members)
	b := build([]string{"shard-3", "shard-1", "shard-0", "shard-2"})
	for _, k := range keys(500) {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("key %q: insertion order changed placement: %q vs %q", k, a.Lookup(k), b.Lookup(k))
		}
	}
	// And a second identical build is bit-for-bit the same routing table.
	c := build(members)
	for _, k := range keys(500) {
		if a.Lookup(k) != c.Lookup(k) {
			t.Fatalf("key %q: rebuild changed placement", k)
		}
	}
}

// Different seeds must place keys independently — otherwise the seed
// is decorative and every deployment shares hotspots.
func TestSeedChangesPlacement(t *testing.T) {
	a, b := New(1, 0), New(2, 0)
	for i := 0; i < 4; i++ {
		m := fmt.Sprintf("shard-%d", i)
		a.Add(m)
		b.Add(m)
	}
	moved := 0
	for _, k := range keys(1000) {
		if a.Lookup(k) != b.Lookup(k) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("seed had no effect on placement")
	}
}

// Adding one member to an N-member ring must move roughly 1/(N+1) of
// the keys and leave everything else in place — the property that
// makes consistent hashing "consistent".
func TestBoundedMovementOnAdd(t *testing.T) {
	const n = 4
	r := New(11, 0)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("shard-%d", i))
	}
	ks := keys(4000)
	before := make([]string, len(ks))
	for i, k := range ks {
		before[i] = r.Lookup(k)
	}
	r.Add(fmt.Sprintf("shard-%d", n))
	moved := 0
	for i, k := range ks {
		after := r.Lookup(k)
		if after != before[i] {
			if after != fmt.Sprintf("shard-%d", n) {
				t.Fatalf("key %q moved between pre-existing members: %q -> %q", k, before[i], after)
			}
			moved++
		}
	}
	frac := float64(moved) / float64(len(ks))
	ideal := 1.0 / float64(n+1)
	if frac > 2.5*ideal {
		t.Fatalf("add moved %.1f%% of keys, want about %.1f%%", frac*100, ideal*100)
	}
	if moved == 0 {
		t.Fatal("new member received no keys")
	}
}

// Removing a member must only reassign that member's keys.
// Virtual points must spread load: no member of a 4-shard ring should
// own a wildly disproportionate share of a uniform keyspace.
func TestLoadSpread(t *testing.T) {
	const n = 4
	r := New(3, 0)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("shard-%d", i))
	}
	counts := map[string]int{}
	ks := keys(8000)
	for _, k := range ks {
		counts[r.Lookup(k)]++
	}
	if len(counts) != n {
		t.Fatalf("only %d of %d members received keys", len(counts), n)
	}
	ideal := float64(len(ks)) / n
	for m, c := range counts {
		if float64(c) < 0.4*ideal || float64(c) > 1.9*ideal {
			t.Fatalf("member %s owns %d keys, ideal %.0f — spread too skewed", m, c, ideal)
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	r := New(1, 0)
	if got := r.Lookup("anything"); got != "" {
		t.Fatalf("empty ring returned %q", got)
	}
	r.Add("only")
	for _, k := range keys(50) {
		if r.Lookup(k) != "only" {
			t.Fatal("singleton ring must own every key")
		}
	}
	points := len(r.points)
	r.Add("only") // duplicate add is a no-op
	if len(r.members) != 1 || len(r.points) != points {
		t.Fatalf("duplicate add changed the ring to %d members, %d points", len(r.members), len(r.points))
	}
}
