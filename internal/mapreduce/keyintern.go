package mapreduce

import (
	"math/bits"

	"approxhadoop/internal/zerocopy"
)

// KeyIndex is the one string index of the data plane, map side and
// reduce side: it gives every distinct key a dense int32 ID in
// first-insert order. The map side's keyTable interns emitted keys
// through it; reducers that keep per-key state in a slice (the
// multi-stage, precise and extreme-value reducers) find a key's place
// in that slice through it.
//
// It is an open-addressed, linearly probed table of 64-bit slots,
// hash32<<32 | id+1 (0 = empty), over the dense keys slice: a hit costs
// one hashKey, one slot load and one string compare against keys[id].
// It is kept at most half full; when it grows, the stored hash32
// re-places every slot without touching a key byte. IDs come from
// first-insert order alone, so nothing a job outputs depends on the
// hash.
//
// Insert stores the key it is handed, so callers hand it durable
// strings: the interned keys of a MapOutput are. The zero KeyIndex is
// empty and ready to use. A KeyIndex is not safe for concurrent use.
type KeyIndex struct {
	slots []uint64 // len is zero or a power of two, at least 2*len(keys)
	keys  []string // id -> key
}

// newKeyIndex returns an index sized for hint keys: inserting that many
// never grows it.
func newKeyIndex(hint int) KeyIndex {
	size := 8
	for size < 2*hint {
		size <<= 1
	}
	return KeyIndex{slots: make([]uint64, size), keys: make([]string, 0, hint)}
}

// Len returns the number of keys in the index.
func (x *KeyIndex) Len() int { return len(x.keys) }

// Cap returns how many keys the index holds before it grows. It at
// least doubles at each growth, so a slice kept beside the index, one
// element per key, that grows to Cap whenever it is full grows as
// seldom as the index does.
func (x *KeyIndex) Cap() int { return len(x.slots) / 2 }

// Key returns the key with the given ID.
func (x *KeyIndex) Key(id int32) string { return x.keys[id] }

// Insert returns key's ID, giving it the next one on first sight;
// added reports a first sight, where key itself is stored.
//
//approx:hotpath
func (x *KeyIndex) Insert(key string) (id int32, added bool) {
	if len(x.slots) == 0 {
		*x = newKeyIndex(4)
	}
	h := hashKey(key)
	mask := uint32(len(x.slots) - 1)
	i := h & mask
	for s := x.slots[i]; s != 0; s = x.slots[i] {
		if uint32(s>>32) == h && x.keys[uint32(s)-1] == key {
			return int32(uint32(s) - 1), false
		}
		i = (i + 1) & mask
	}
	if len(x.keys) == x.Cap() {
		x.grow()
		i = x.free(h)
	}
	x.keys = append(x.keys, key)
	x.slots[i] = uint64(h)<<32 | uint64(len(x.keys))
	return int32(len(x.keys) - 1), true
}

// free returns the first empty slot on the probe sequence of hash h.
func (x *KeyIndex) free(h uint32) uint32 {
	mask := uint32(len(x.slots) - 1)
	i := h & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the slots, re-placing every one by its stored hash in
// slot order without reading a key, and makes room in keys for the new
// Cap.
func (x *KeyIndex) grow() {
	old := x.slots
	x.slots = make([]uint64, 2*len(old))
	for _, s := range old {
		if s != 0 {
			x.slots[x.free(uint32(s>>32))] = s
		}
	}
	if cap(x.keys) < x.Cap() {
		keys := make([]string, len(x.keys), x.Cap())
		copy(keys, x.keys)
		x.keys = keys
	}
}

// keyTable is the per-attempt key interner of the zero-allocation data
// plane. Map emitters hand it every emitted key (often a transient view
// of a reusable line buffer); the table assigns a dense int32 ID per
// distinct key — its KeyIndex ID — copies the key bytes into an
// append-only arena exactly once, and memoizes the key's reduce
// partition so the FNV hash runs once per distinct key instead of once
// per emitted pair. Everything downstream of the emitter moves (keyID,
// value) pairs; strings are resolved only when a reducer needs them.
//
// The index is sized once from the distinct-key hint, so it rarely
// grows mid-attempt.
//
// A table is owned by one map attempt (executeMap), so it needs no
// locking — the compute-plane contract holds because no two goroutines
// ever share an instance. Interned strings are durable: the arena
// chunks are append-only and never recycled, so a string view handed
// out by Resolve stays valid for the life of the attempt's MapOutput.
type keyTable struct {
	index   KeyIndex
	parts   []int32 // id -> reduce partition
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
// (an upper bound on the attempt's distinct keys) sizes the index and
// the dense id-indexed slices so interning new keys never reallocates
// mid-attempt; arenaBytes > 0 sizes the first arena chunk to the key
// bytes the attempt is expected to intern, in place of keyArenaFirst;
// either way a full chunk's successor is twice its size.
func newKeyTable(reduces, hint, arenaBytes int) *keyTable {
	t := &keyTable{reduces: reduces, index: newKeyIndex(hint)}
	if hint > 0 {
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
	id, added := t.index.Insert(key)
	if added {
		key = t.copyKey(key)
		t.index.keys[id] = key // the index stored the view it was handed
		if part < 0 {
			part = int32(Partition(key, t.reduces))
		}
		t.parts = append(t.parts, part)
	}
	return id
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
func (t *keyTable) Resolve(id int32) string { return t.index.keys[id] }

// Len returns the number of distinct keys interned so far.
func (t *keyTable) Len() int { return t.index.Len() }

// Bytes returns the total length of the interned keys.
func (t *keyTable) Bytes() int {
	n := 0
	for _, k := range t.index.keys {
		n += len(k)
	}
	return n
}
