// Package ring implements a deterministic consistent-hash ring for
// placing jobs onto engine shards.
//
// Each member is projected onto the ring at a fixed number of virtual
// points derived from a seeded FNV-64a hash, so placement is a pure
// function of (seed, member set, key): the same ring built twice — or
// rebuilt after a daemon restart — routes every key identically.
// Virtual points smooth the load split and bound how many keys move
// when a member is added to roughly 1/N of the keyspace,
// which is what keeps idempotency-key dedup meaningful across small
// topology changes.
package ring

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the virtual-point count per member. 64 points
// keeps the max/min load ratio within a few percent for small fleets
// while the ring stays tiny (N*64 entries).
const DefaultReplicas = 64

type point struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring. It is not safe for concurrent
// mutation; build it once at daemon boot and share it read-only.
type Ring struct {
	seed     uint64
	replicas int
	points   []point
	members  map[string]bool
}

// New returns an empty ring. All hashes are salted with seed, so two
// rings with equal seeds and equal member sets are identical and two
// rings with different seeds place keys independently.
func New(seed uint64, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{seed: seed, replicas: replicas, members: map[string]bool{}}
}

// hash64 is seeded FNV-64a over s, run through a 64-bit finalizer:
// cheap, allocation-free, and stable across processes (no
// map-iteration or ASLR dependence). The finalizer matters — raw
// FNV-1a mixes a trailing byte into only the low ~40 bits, so
// similar keys ("tenant-0001", "tenant-0002", ...) share their high
// bits and pile onto one arc of the ring; the extra mixing rounds
// spread every input bit across the full word.
func (r *Ring) hash64(s string) uint64 {
	h := fnv.New64a()
	var salt [8]byte
	binary.LittleEndian.PutUint64(salt[:], r.seed)
	h.Write(salt[:])   //lint:ignore errcheck hash.Hash.Write never fails
	h.Write([]byte(s)) //lint:ignore errcheck hash.Hash.Write never fails
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member at its virtual points. Adding a present member
// is a no-op, so rebuilding a ring from an unordered member list is
// safe and order-independent.
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, point{
			hash:   r.hash64(fmt.Sprintf("%s#%d", member, i)),
			member: member,
		})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on member name so placement stays deterministic
		// even in the astronomically unlikely event of a hash collision.
		return r.points[a].member < r.points[b].member
	})
}

// Lookup returns the member owning key: the first virtual point at or
// clockwise of the key's hash. It returns "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := r.hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].member
}
