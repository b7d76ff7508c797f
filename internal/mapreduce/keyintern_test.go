package mapreduce

import (
	"strconv"
	"strings"
	"sync"
	"testing"
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
// — the push-mode record contract.
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
