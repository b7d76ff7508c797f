package mapreduce

import (
	"math/bits"

	"approxhadoop/internal/zerocopy"
)

// keyTable is the per-attempt key interner of the zero-allocation data
// plane. Map emitters hand it every emitted key (often a transient view
// of a reusable line buffer); the table assigns a dense int32 ID per
// distinct key, copies the key bytes into an append-only arena exactly
// once, and memoizes the key's reduce partition so the FNV hash runs
// once per distinct key instead of once per emitted pair. Everything
// downstream of the emitter moves (keyID, value) pairs; strings are
// resolved only when a reducer needs them.
//
// The index is an open-addressed, linearly probed table of 64-bit
// slots, hash32<<32 | id+1 (0 = empty), over the dense keys slice: a
// hit costs one hashKey, one slot load and one string compare against
// keys[id]. It is kept at most half full and sized once from the
// distinct-key hint; when it does grow, the stored hash32 re-places
// every slot without touching a key byte. IDs come from first-sight
// order alone, so nothing a job outputs depends on the hash.
//
// A table is owned by one map attempt (executeMap), so it needs no
// locking — the compute-plane contract holds because no two goroutines
// ever share an instance. Interned strings are durable: the arena
// chunks are append-only and never recycled, so a string view handed
// out by Resolve stays valid for the life of the attempt's MapOutput.
type keyTable struct {
	slots   []uint64 // len is a power of two, at least 2*len(keys)
	keys    []string // id -> interned key
	parts   []int32  // id -> reduce partition
	reduces int
	arena   []byte // current chunk; full chunks are abandoned to the GC-rooted strings
}

// keyArenaChunk is the largest arena chunk. Keys longer than a chunk
// get a dedicated allocation. keyArenaFirst is an unhinted table's
// first chunk.
const (
	keyArenaChunk = 16 << 10
	keyArenaFirst = 1024
)

// newKeyTable builds an interner for the given partition count. hint
// (an upper bound on the attempt's distinct keys) sizes the slot table
// and the dense id-indexed slices so interning new keys never
// reallocates mid-attempt; arenaBytes > 0 sizes the first arena chunk
// to the key bytes the attempt is expected to intern, in place of
// keyArenaFirst; either way a full chunk's successor is twice its size.
func newKeyTable(reduces, hint, arenaBytes int) *keyTable {
	t := &keyTable{reduces: reduces}
	size := 8
	for size < 2*hint {
		size <<= 1
	}
	t.slots = make([]uint64, size)
	if hint > 0 {
		t.keys = make([]string, 0, hint)
		t.parts = make([]int32, 0, hint)
	}
	if arenaBytes > 0 {
		t.arena = make([]byte, 0, arenaBytes)
	}
	return t
}

// hashKey is the table's string hash: eight bytes at a time folded
// through a 64x64->128-bit multiply, the tail (up to eight bytes, read
// as overlapping words) folded once more with the length. It is a fixed
// function of the key bytes — hash/maphash seeds itself per process,
// which would make probe lengths, and so timings and profiles, differ
// from run to run for the same job.
//
//approx:hotpath
func hashKey(s string) uint32 {
	h := uint64(len(s))
	for len(s) > 8 {
		h = mulFold(h^zerocopy.Load64(s), 0x9e3779b97f4a7c15)
		s = s[8:]
	}
	var w uint64
	switch n := len(s); {
	case n == 8:
		w = zerocopy.Load64(s)
	case n >= 4:
		w = load32(s) | load32(s[n-4:])<<32
	case n > 0:
		w = uint64(s[0]) | uint64(s[n>>1])<<8 | uint64(s[n-1])<<16
	}
	h = mulFold(h^w, 0xd6e8feb86659fd93)
	return uint32(h)
}

func mulFold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// load32 reads s[0:4] little-endian; the compiler merges it into one
// load.
func load32(s string) uint64 {
	_ = s[3]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
}

// intern returns key's ID, assigning the next one on first sight. part
// is the partition a new key is filed under; a negative part hashes it
// from the key. The key argument may be a transient buffer view; the
// stored copy is arena-backed and durable.
//
//approx:hotpath
func (t *keyTable) intern(key string, part int32) int32 {
	h := hashKey(key)
	mask := uint32(len(t.slots) - 1)
	i := h & mask
	for s := t.slots[i]; s != 0; s = t.slots[i] {
		if uint32(s>>32) == h && t.keys[uint32(s)-1] == key {
			return int32(uint32(s) - 1)
		}
		i = (i + 1) & mask
	}
	key = t.copyKey(key)
	if part < 0 {
		part = int32(Partition(key, t.reduces))
	}
	t.keys = append(t.keys, key)
	t.parts = append(t.parts, part)
	t.slots[i] = uint64(h)<<32 | uint64(len(t.keys))
	if 2*len(t.keys) > len(t.slots) {
		t.grow()
	}
	return int32(len(t.keys) - 1)
}

// grow doubles the slot table and re-places every slot by its stored
// hash, in slot order; no key is read.
func (t *keyTable) grow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := uint32(s>>32) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Intern returns the ID and reduce partition for key, assigning both on
// first sight.
//
//approx:hotpath
func (t *keyTable) Intern(key string) (id, part int32) {
	id = t.intern(key, -1)
	return id, t.parts[id]
}

// InternAt is Intern with the partition supplied by the caller instead
// of hashed from the key — the composite-key emit path partitions by
// the group prefix alone; a negative part hashes it as Intern does. The
// caller must pass the same partition for every sight of a given key.
//
//approx:hotpath
func (t *keyTable) InternAt(key string, part int32) (id int32) {
	return t.intern(key, part)
}

// copyKey appends key's bytes to the arena and returns a durable string
// view of the copy. The view aliases arena memory that is never
// rewritten: the chunk only grows by appending past the copy, and a
// full chunk is abandoned (kept alive by the strings into it) rather
// than reused. The next chunk is twice the full one (an unhinted
// table's first is keyArenaFirst), capped at keyArenaChunk and at least
// the key.
//
//approx:hotpath
func (t *keyTable) copyKey(key string) string {
	if len(key) > keyArenaChunk {
		return string(append([]byte(nil), key...))
	}
	if cap(t.arena)-len(t.arena) < len(key) {
		n := 2 * cap(t.arena)
		if n == 0 {
			n = keyArenaFirst
		}
		t.arena = make([]byte, 0, max(min(n, keyArenaChunk), len(key)))
	}
	start := len(t.arena)
	t.arena = append(t.arena, key...)
	return zerocopy.String(t.arena[start:len(t.arena):len(t.arena)])
}

// byPartition lists every partition's key IDs in ascending order, which
// is first-sight order, as consecutive non-nil sub-slices of one backing
// array.
func (t *keyTable) byPartition() [][]int32 {
	lists := make([][]int32, t.reduces)
	ids := make([]int32, len(t.parts))
	// First the lengths count each partition's keys (any slice of ids is
	// long enough), then each list becomes an empty window of ids sized
	// to its count, and the IDs fill the windows in order.
	for _, p := range t.parts {
		lists[p] = ids[:len(lists[p])+1]
	}
	off := 0
	for p, l := range lists {
		lists[p] = ids[off : off : off+len(l)]
		off += len(l)
	}
	for id, p := range t.parts {
		lists[p] = append(lists[p], int32(id))
	}
	return lists
}

// Resolve returns the interned key for an ID previously returned by
// Intern. The string is durable (arena-backed) and safe to retain.
func (t *keyTable) Resolve(id int32) string { return t.keys[id] }

// Len returns the number of distinct keys interned so far.
func (t *keyTable) Len() int { return len(t.keys) }

// Bytes returns the total length of the interned keys.
func (t *keyTable) Bytes() int {
	n := 0
	for _, k := range t.keys {
		n += len(k)
	}
	return n
}
