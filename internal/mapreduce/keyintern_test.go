package mapreduce

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"approxhadoop/internal/zerocopy"
)

// TestKeyTableRoundTrip checks the interner's core contract: every
// distinct key gets one stable ID, Resolve returns exactly the interned
// bytes, and the memoized partition matches the live hash.
func TestKeyTableRoundTrip(t *testing.T) {
	const reduces = 7
	tab := newKeyTable(reduces, 0, 0)
	keys := make([]string, 300)
	ids := make([]int32, len(keys))
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(i%100) // every key seen three times
		id, part := tab.Intern(keys[i])
		ids[i] = id
		if want := int32(Partition(keys[i], reduces)); part != want {
			t.Fatalf("Intern(%q) partition %d, want %d", keys[i], part, want)
		}
	}
	if tab.Len() != 100 {
		t.Fatalf("interned %d distinct keys, want 100", tab.Len())
	}
	for i := range keys {
		if got := tab.Resolve(ids[i]); got != keys[i] {
			t.Fatalf("Resolve(%d) = %q, want %q", ids[i], got, keys[i])
		}
		if id2, _ := tab.Intern(keys[i]); id2 != ids[i] {
			t.Fatalf("re-Intern(%q) = %d, want stable id %d", keys[i], id2, ids[i])
		}
	}
}

// TestKeyTableTransientKeys proves interned strings are durable even
// when Intern is handed views of a buffer that is rewritten afterwards
// — the record lifetime contract.
func TestKeyTableTransientKeys(t *testing.T) {
	tab := newKeyTable(4, 0, 0)
	buf := make([]byte, 0, 64)
	var ids []int32
	var want []string
	for i := 0; i < 50; i++ {
		buf = append(buf[:0], "volatile-"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		id, _ := tab.Intern(string(buf)) // string(buf) stays, but exercise reuse below too
		ids = append(ids, id)
		want = append(want, "volatile-"+strconv.Itoa(i))
		// Scribble over the buffer the way the next record read would.
		for j := range buf {
			buf[j] = 'x'
		}
	}
	for i, id := range ids {
		if got := tab.Resolve(id); got != want[i] {
			t.Fatalf("Resolve(%d) = %q, want %q (interned copy not durable)", id, got, want[i])
		}
	}
}

// TestKeyTableArenaBoundaries crosses chunk boundaries and the
// oversized-key escape hatch.
func TestKeyTableArenaBoundaries(t *testing.T) {
	tab := newKeyTable(3, 0, 0)
	long := strings.Repeat("L", keyArenaChunk+1) // dedicated allocation path
	medium := strings.Repeat("m", keyArenaChunk/2+1)
	inputs := []string{long, medium, strings.Repeat("n", keyArenaChunk/2+1), "tiny", long, medium}
	ids := make([]int32, len(inputs))
	for i, k := range inputs {
		ids[i], _ = tab.Intern(k)
	}
	if ids[0] != ids[4] || ids[1] != ids[5] {
		t.Fatal("duplicate keys across chunk boundaries got fresh ids")
	}
	for i, k := range inputs {
		if got := tab.Resolve(ids[i]); got != k {
			t.Fatalf("Resolve(%d) has %d bytes, want %d", ids[i], len(got), len(k))
		}
	}
}

// TestKeyTableConcurrentAttempts runs many independent interners on
// concurrent goroutines — the pool execution shape, one table per map
// attempt — and checks each stays collision-free and resolves its own
// keys. Run under -race this also proves attempt-locality: no shared
// state between tables.
func TestKeyTableConcurrentAttempts(t *testing.T) {
	const attempts = 16
	var wg sync.WaitGroup
	errs := make(chan string, attempts)
	for a := 0; a < attempts; a++ {
		a := a
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab := newKeyTable(5, 0, 0)
			for i := 0; i < 2000; i++ {
				key := "attempt" + strconv.Itoa(a) + "-key" + strconv.Itoa(i%500)
				id, part := tab.Intern(key)
				if got := tab.Resolve(id); got != key {
					errs <- "attempt " + strconv.Itoa(a) + ": Resolve(" + key + ") = " + got
					return
				}
				if int(part) != Partition(key, 5) {
					errs <- "attempt " + strconv.Itoa(a) + ": partition mismatch for " + key
					return
				}
			}
			if tab.Len() != 500 {
				errs <- "attempt " + strconv.Itoa(a) + ": " + strconv.Itoa(tab.Len()) + " distinct keys, want 500"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// FuzzInternResolve feeds arbitrary key bytes through Intern/Resolve:
// for any pair of inputs, interning must be injective (same id iff same
// key) and Resolve must be the exact inverse of Intern.
func FuzzInternResolve(f *testing.F) {
	f.Add([]byte("hello"), []byte("world"))
	f.Add([]byte(""), []byte("\x00"))
	f.Add([]byte("a\tb\nc"), []byte("a\tb\nc"))
	f.Add([]byte(strings.Repeat("k", keyArenaChunk)), []byte("k"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		tab := newKeyTable(4, 0, 0)
		ka, kb := string(a), string(b)
		ia, pa := tab.Intern(ka)
		ib, pb := tab.Intern(kb)
		if (ia == ib) != (ka == kb) {
			t.Fatalf("Intern(%q)=%d, Intern(%q)=%d: id equality must match key equality", ka, ia, kb, ib)
		}
		if tab.Resolve(ia) != ka || tab.Resolve(ib) != kb {
			t.Fatalf("Resolve is not the inverse of Intern for %q / %q", ka, kb)
		}
		if int(pa) != Partition(ka, 4) || int(pb) != Partition(kb, 4) {
			t.Fatalf("memoized partition mismatch for %q / %q", ka, kb)
		}
		// Re-interning after the table grew must return the first ids.
		if ia2, _ := tab.Intern(ka); ia2 != ia {
			t.Fatalf("re-Intern(%q) = %d, want %d", ka, ia2, ia)
		}
	})
}

// lowBitColliders returns n distinct keys whose hashKey values agree in
// their low 12 bits: in any table of up to 4096 slots they all start
// probing at the same slot.
func lowBitColliders(n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		k := "collide-" + strconv.Itoa(i)
		if hashKey(k)&0xfff == 0x5a5 {
			out = append(out, k)
		}
	}
	return out
}

// keyModel is the reference the table is checked against: a Go map
// from key to ID, IDs handed out in first-sight order, and the
// partition each key was first given.
type keyModel struct {
	ids   map[string]int32
	keys  []string
	parts []int32
}

func (m *keyModel) intern(key string, part int32) (id int32) {
	if id, ok := m.ids[key]; ok {
		return id
	}
	id = int32(len(m.keys))
	m.ids[key] = id
	m.keys = append(m.keys, key)
	m.parts = append(m.parts, part)
	return id
}

// checkKeyTableOps drives one table and the model through the same
// calls. op picks Intern (even) or InternAt (odd) and the key; keys are
// handed over as views of a scratch buffer that is overwritten right
// after the call, as records are. hint also sizes the first arena chunk
// in bytes, so a nonzero hint runs the arena's doubling growth.
func checkKeyTableOps(t testing.TB, reduces, hint int, universe []string, ops int, pick func(i int) (key int, at bool)) {
	tab := newKeyTable(reduces, hint, hint)
	model := &keyModel{ids: map[string]int32{}}
	scratch := make([]byte, 0, 64)
	for i := 0; i < ops; i++ {
		k, at := pick(i)
		key := universe[k]
		scratch = append(scratch[:0], key...)
		view := zerocopy.String(scratch)
		var id, part int32
		if at {
			// InternAt's contract: the same partition at every sight.
			part = int32(len(key) % reduces)
			id = tab.InternAt(view, part)
		} else {
			id, part = tab.Intern(view)
			if want := int32(Partition(key, reduces)); part != want {
				t.Fatalf("op %d: Intern(%q) partition %d, want Partition = %d", i, key, part, want)
			}
		}
		if want := model.intern(key, part); id != want {
			t.Fatalf("op %d: key %q got id %d, model %d", i, key, id, want)
		}
		for j := range scratch {
			scratch[j] = 0xff
		}
	}
	if tab.Len() != len(model.keys) {
		t.Fatalf("table holds %d keys, model %d", tab.Len(), len(model.keys))
	}
	bytes := 0
	for id, key := range model.keys {
		if got := tab.Resolve(int32(id)); got != key {
			t.Fatalf("Resolve(%d) = %q, model %q", id, got, key)
		}
		if tab.parts[id] != model.parts[id] {
			t.Fatalf("id %d (%q): partition %d, model %d", id, key, tab.parts[id], model.parts[id])
		}
		bytes += len(key)
	}
	if tab.Bytes() != bytes {
		t.Fatalf("Bytes() = %d, model %d", tab.Bytes(), bytes)
	}
	lists := tab.byPartition()
	next := make([]int, reduces)
	for id, p := range model.parts {
		if l := lists[p]; next[p] >= len(l) || l[next[p]] != int32(id) {
			t.Fatalf("byPartition: partition %d does not list id %d at %d: %v", p, id, next[p], l)
		}
		next[p]++
	}
	for p, l := range lists {
		if len(l) != next[p] {
			t.Fatalf("byPartition: partition %d lists %d ids, model %d", p, len(l), next[p])
		}
	}
	if len(tab.index.slots)&(len(tab.index.slots)-1) != 0 || 2*tab.Len() > len(tab.index.slots) {
		t.Fatalf("%d keys in %d slots: want a power of two, at most half full", tab.Len(), len(tab.index.slots))
	}
}

// keyTableUniverse mixes the shapes that stress an open-addressed
// table: keys that all hash to one start slot, the empty key, a key
// longer than an arena chunk, keys one byte apart at every tail length
// of hashKey, and a bulk of ordinary ones. A key is used through Intern
// or through InternAt, never both (a key's partition is fixed at first
// sight), so the two halves of the universe are disjoint.
func keyTableUniverse(n int) []string {
	u := lowBitColliders(300)
	u = append(u, "", strings.Repeat("L", keyArenaChunk+1), strings.Repeat("L", keyArenaChunk+2))
	for w := 1; w <= 17; w++ {
		u = append(u, strings.Repeat("a", w), strings.Repeat("a", w)+"b", "b"+strings.Repeat("a", w))
	}
	for i := 0; len(u) < n; i++ {
		u = append(u, "page"+strconv.Itoa(i))
	}
	return u
}

// TestKeyTableMatchesMapModel is the reference-model test: 200 k mixed
// Intern/InternAt calls, Zipf-ordered so hits dominate as in a real
// block, against the map model — at hint 0, at a hint a tenth of the
// real count (several growths) and at the exact count (none).
func TestKeyTableMatchesMapModel(t *testing.T) {
	universe := keyTableUniverse(6000)
	for _, hint := range []int{0, len(universe) / 10, len(universe)} {
		rng := rand.New(rand.NewSource(int64(hint) + 1))
		zipf := rand.NewZipf(rng, 1.1, 4, uint64(len(universe)-1))
		// A fixed shuffle, so the Zipf head is not the collider block.
		perm := rng.Perm(len(universe))
		checkKeyTableOps(t, 7, hint, universe, 200_000, func(int) (int, bool) {
			k := perm[zipf.Uint64()]
			return k, k%2 == 1
		})
	}
	// Every key exactly once, in order: the collider run is inserted
	// back to back into a table too small for it.
	checkKeyTableOps(t, 3, 0, universe, len(universe), func(i int) (int, bool) { return i, false })
}

// TestKeyTableHintedNeverGrows pins the sizing rule: a table built with
// the true distinct-key count allocates its slots once.
func TestKeyTableHintedNeverGrows(t *testing.T) {
	for _, n := range []int{1, 4, 5, 400, 512, 513, 20000} {
		tab := newKeyTable(4, n, 0)
		slots := len(tab.index.slots)
		for i := 0; i < n; i++ {
			tab.Intern("k" + strconv.Itoa(i))
		}
		if len(tab.index.slots) != slots {
			t.Errorf("hint %d: slots grew %d -> %d", n, slots, len(tab.index.slots))
		}
		if slots >= 4*n && slots > 8 {
			t.Errorf("hint %d: %d slots, want under 4 per key", n, slots)
		}
	}
}

// TestKeyTableArenaGrowth pins the arena's one growth rule: a full
// chunk's successor is twice its size, capped at keyArenaChunk and
// never smaller than the key. A hinted table's first chunk holds the
// hinted bytes, an unhinted table's is keyArenaFirst.
func TestKeyTableArenaGrowth(t *testing.T) {
	tab := newKeyTable(4, 4, 32)
	for i := 0; i < 4; i++ {
		tab.Intern("sixteen-byte-" + strconv.Itoa(100+i)) // 16 bytes each
	}
	if got := cap(tab.arena); got != 64 {
		t.Errorf("hinted 32-byte arena overflowed into a %d-byte chunk, want 64", got)
	}
	long := strings.Repeat("k", 200)
	tab.Intern(long)
	if got := cap(tab.arena); got != len(long) {
		t.Errorf("a %d-byte key after a 64-byte chunk opened a %d-byte chunk, want %d", len(long), got, len(long))
	}
	big := newKeyTable(4, 4, keyArenaChunk-8)
	big.Intern(strings.Repeat("x", keyArenaChunk-8))
	big.Intern("overflow")
	big.Intern("overflow!")
	if got := cap(big.arena); got != keyArenaChunk {
		t.Errorf("a full near-cap arena opened a %d-byte chunk, want the %d cap", got, keyArenaChunk)
	}
	cold := newKeyTable(4, 0, 0)
	cold.Intern("k")
	if got := cap(cold.arena); got != keyArenaFirst {
		t.Errorf("unhinted table's first chunk is %d bytes, want %d", got, keyArenaFirst)
	}
	for i := 0; cap(cold.arena) == keyArenaFirst; i++ {
		cold.Intern("cold-" + strconv.Itoa(1000+i)) // 9 bytes each
	}
	if got := cap(cold.arena); got != 2*keyArenaFirst {
		t.Errorf("unhinted table's second chunk is %d bytes, want %d", got, 2*keyArenaFirst)
	}
	for _, k := range []string{"sixteen-byte-100", "sixteen-byte-103", long} {
		if id, _ := tab.Intern(k); tab.Resolve(id) != k {
			t.Errorf("Resolve after growth = %q, want %q", tab.Resolve(id), k)
		}
	}
}

// FuzzKeyTable interprets its input as a program of Intern/InternAt
// calls over a small universe that includes the collider keys, and
// checks it against the map model at a fuzzed hint.
func FuzzKeyTable(f *testing.F) {
	universe := keyTableUniverse(512)
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, uint16(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(3))
	f.Add(bytes.Repeat([]byte{1, 0, 3, 0, 5, 0, 7, 0, 9, 0, 11, 1, 13, 1}, 40), uint16(40))
	f.Fuzz(func(t *testing.T, prog []byte, hint uint16) {
		ops := len(prog) / 2
		checkKeyTableOps(t, 5, int(hint)%1024, universe, ops, func(i int) (int, bool) {
			k := (int(prog[2*i]) | int(prog[2*i+1])<<8) % len(universe)
			return k, k%2 == 1
		})
	})
}

// hashColliders are pairs of distinct keys with equal hashKey values:
// an index can tell the two of a pair apart only by comparing keys.
var hashColliders = [][2]string{
	{"hash-24989", "hash-70216"},
	{"hash-76385", "hash-85036"},
	{"hash-10527", "hash-89521"},
	{"hash-75223", "hash-112882"},
	{"hash-115933", "hash-151117"},
	{"hash-115173", "hash-164215"},
}

// TestHashColliders keeps FuzzKeyIndex's colliders colliding.
func TestHashColliders(t *testing.T) {
	for _, c := range hashColliders {
		if hashKey(c[0]) != hashKey(c[1]) {
			t.Errorf("hashKey(%q) = %08x, hashKey(%q) = %08x: not a collision", c[0], hashKey(c[0]), c[1], hashKey(c[1]))
		}
	}
}

// keyIndexUniverse puts the whole-hash colliders first, then keys that
// share a start slot, then ordinary ones, 600 keys in all: a program
// that inserts more than a few grows the index, and one that inserts
// many grows it up to 2048 slots.
func keyIndexUniverse() []string {
	var u []string
	for _, c := range hashColliders {
		u = append(u, c[0], c[1])
	}
	u = append(u, lowBitColliders(40)...)
	u = append(u, "")
	for i := 0; len(u) < 600; i++ {
		u = append(u, "page"+strconv.Itoa(i))
	}
	return u
}

// FuzzKeyIndex interprets its input as a program of Insert and Find
// calls over keyIndexUniverse, on a zero index or one sized by a fuzzed
// hint, and checks every answer, then every key and the slots' shape,
// against a map[string]int32 model that hands out IDs in first-insert
// order.
func FuzzKeyIndex(f *testing.F) {
	universe := keyIndexUniverse()
	all := make([]byte, 0, 4*len(universe))
	for i := range universe {
		all = append(all, byte(i), byte(i>>8)) // Insert
	}
	for i := range universe {
		all = append(all, byte(i), byte(i>>8)|0x80) // Find
	}
	f.Add(all, uint8(0))
	f.Add(all[:48], uint8(3)) // the colliders and 12 keys sharing a start slot, into a hinted index
	f.Add([]byte{0, 0, 1, 0, 0, 0x80, 1, 0x80, 2, 0x80, 1, 0, 0, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, prog []byte, hint uint8) {
		var x KeyIndex
		if hint > 0 {
			x = newKeyIndex(int(hint))
		}
		model := map[string]int32{}
		for i := 0; i+1 < len(prog); i += 2 {
			key := universe[(int(prog[i])|int(prog[i+1]&0x7f)<<8)%len(universe)]
			want, seen := model[key]
			if prog[i+1]&0x80 != 0 {
				if id, ok := x.Find(key); ok != seen || ok && id != want {
					t.Fatalf("op %d: Find(%q) = %d, %t; model %d, %t", i/2, key, id, ok, want, seen)
				}
				continue
			}
			if !seen {
				want = int32(len(model))
				model[key] = want
			}
			if id, added := x.Insert(key); id != want || added == seen {
				t.Fatalf("op %d: Insert(%q) = %d, %t; model %d, %t", i/2, key, id, added, want, !seen)
			}
		}
		if x.Len() != len(model) {
			t.Fatalf("index holds %d keys, model %d", x.Len(), len(model))
		}
		for key, id := range model {
			if x.Key(id) != key {
				t.Fatalf("Key(%d) = %q, model %q", id, x.Key(id), key)
			}
		}
		if n := len(x.slots); n&(n-1) != 0 || x.Cap() != n/2 || x.Len() > x.Cap() {
			t.Fatalf("%d keys in %d slots: want a power of two, at most half full", x.Len(), n)
		}
	})
}
