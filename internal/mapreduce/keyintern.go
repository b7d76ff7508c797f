package mapreduce

import "approxhadoop/internal/zerocopy"

// keyTable is the per-attempt key interner of the zero-allocation data
// plane. Map emitters hand it every emitted key (often a transient view
// of a reusable line buffer); the table assigns a dense int32 ID per
// distinct key, copies the key bytes into an append-only arena exactly
// once, and memoizes the key's reduce partition so the FNV hash runs
// once per distinct key instead of once per emitted pair. Everything
// downstream of the emitter moves (keyID, value) pairs; strings are
// resolved only when a reducer needs them.
//
// A table is owned by one map attempt (executeMap), so it needs no
// locking — the sharedstate contract holds because no two goroutines
// ever share an instance. Interned strings are durable: the arena
// chunks are append-only and never recycled, so a string view handed
// out by Resolve stays valid for the life of the attempt's MapOutput.
type keyTable struct {
	ids     map[string]int32
	keys    []string // id -> interned key
	parts   []int32  // id -> reduce partition
	reduces int
	arena   []byte // current chunk; full chunks are abandoned to the GC-rooted strings
}

// keyArenaChunk is the arena growth quantum. Keys longer than a chunk
// get a dedicated allocation.
const keyArenaChunk = 16 << 10

// newKeyTable builds an interner for the given partition count. hint
// (an upper bound on the attempt's distinct keys) pre-sizes the id map
// and the dense id-indexed slices so interning new keys never
// reallocates mid-attempt; arenaBytes > 0 sizes the first arena chunk
// to the key bytes the attempt is expected to intern, in place of a
// full keyArenaChunk.
func newKeyTable(reduces, hint, arenaBytes int) *keyTable {
	// Cap the map pre-size: distinct keys are usually far fewer than
	// pairs, and the runtime allocates large pre-sized maps in many
	// overflow-bucket pieces (measured: hint 4096 costs 18 allocations,
	// hint 512 costs 4). The map still grows past the cap if needed.
	mh := hint
	if mh > 512 {
		mh = 512
	}
	t := &keyTable{
		ids:     make(map[string]int32, mh),
		reduces: reduces,
	}
	if hint > 0 {
		t.keys = make([]string, 0, hint)
		t.parts = make([]int32, 0, hint)
	}
	if arenaBytes > 0 {
		t.arena = make([]byte, 0, arenaBytes)
	}
	return t
}

// Intern returns the ID and reduce partition for key, assigning both on
// first sight. The key argument may be a transient buffer view; the
// stored copy is arena-backed and durable.
//
//approx:hotpath
func (t *keyTable) Intern(key string) (id, part int32) {
	if id, ok := t.ids[key]; ok {
		return id, t.parts[id]
	}
	durable := t.copyKey(key)
	id = int32(len(t.keys))
	part = int32(Partition(durable, t.reduces))
	t.ids[durable] = id
	t.keys = append(t.keys, durable)
	t.parts = append(t.parts, part)
	return id, part
}

// InternAt is Intern with the partition supplied by the caller instead
// of hashed from the key — the composite-key emit path partitions by
// the group prefix alone. The caller must pass the same partition for
// every sight of a given key.
//
//approx:hotpath
func (t *keyTable) InternAt(key string, part int32) (id int32) {
	if id, ok := t.ids[key]; ok {
		return id
	}
	durable := t.copyKey(key)
	id = int32(len(t.keys))
	t.ids[durable] = id
	t.keys = append(t.keys, durable)
	t.parts = append(t.parts, part)
	return id
}

// copyKey appends key's bytes to the arena and returns a durable string
// view of the copy. The view aliases arena memory that is never
// rewritten: the chunk only grows by appending past the copy, and a
// full chunk is abandoned (kept alive by the strings into it) rather
// than reused.
//
//approx:hotpath
func (t *keyTable) copyKey(key string) string {
	if len(key) > keyArenaChunk {
		return string(append([]byte(nil), key...))
	}
	if cap(t.arena)-len(t.arena) < len(key) {
		t.arena = make([]byte, 0, keyArenaChunk)
	}
	start := len(t.arena)
	t.arena = append(t.arena, key...)
	return zerocopy.String(t.arena[start:len(t.arena):len(t.arena)])
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
