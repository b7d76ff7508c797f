package mapreduce

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"approxhadoop/internal/zerocopy"
)

// checkSortByKey sorts keys with SortByKey and holds the result to
// slices.SortFunc over strings.Compare, with equal keys in input order;
// then it deals the sorted keys into runs and holds mergeByKey, whole
// and split in two, to the same order. sortedByKey is held to slices.IsSortedFunc before and
// after the sort.
func checkSortByKey(t *testing.T, keys []string) {
	t.Helper()
	out := make([]KeyEstimate, len(keys))
	for i, k := range keys {
		out[i] = KeyEstimate{Key: k}
		out[i].Est.Value = float64(i)
	}
	if got, want := sortedByKey(out, keyPrefixes(out)), slices.IsSortedFunc(keys, strings.Compare); got != want {
		t.Fatalf("sortedByKey(%q) = %t, want %t", keys, got, want)
	}
	want := slices.Clone(keys)
	slices.SortFunc(want, strings.Compare)
	SortByKey(out)
	if !sortedByKey(out, keyPrefixes(out)) {
		t.Fatalf("sortedByKey is false after SortByKey(%q)", keys)
	}
	for i := range out {
		if out[i].Key != want[i] {
			t.Fatalf("SortByKey(%q): position %d holds %q, want %q", keys, i, out[i].Key, want[i])
		}
		if i > 0 && out[i].Key == out[i-1].Key && out[i].Est.Value < out[i-1].Est.Value {
			t.Fatalf("SortByKey(%q): equal keys %q out of input order", keys, out[i].Key)
		}
	}
	for _, parts := range []int{1, 2, 3, 10} {
		runs := make([][]KeyEstimate, parts)
		for i, e := range out {
			p := int(zerocopy.Prefix64(e.Key)%7+uint64(len(e.Key))) % parts
			if i%5 == 0 {
				p = i % parts
			}
			runs[p] = append(runs[p], e)
		}
		prefixes := make([][]uint64, parts)
		for p, r := range runs {
			prefixes[p] = keyPrefixes(r)
		}
		whole := &mergeFuture{runs: runs, prefixes: prefixes, out: make([]KeyEstimate, len(out))}
		whole.compute()
		for i := range whole.out {
			if whole.out[i].Key != want[i] {
				t.Fatalf("mergeByKey over %d runs of %q: position %d holds %q, want %q", parts, keys, i, whole.out[i].Key, want[i])
			}
		}
		if len(out) == 0 {
			continue
		}
		// The two halves of split merged apart fill out as the whole does.
		halves := &mergeFuture{runs: runs, prefixes: prefixes, out: make([]KeyEstimate, len(out))}
		lower, upper := halves.split()
		upper.compute()
		lower.compute()
		for i := range halves.out {
			if halves.out[i] != whole.out[i] {
				t.Fatalf("split merge over %d runs of %q: position %d holds %+v, whole merge %+v", parts, keys, i, halves.out[i], whole.out[i])
			}
		}
	}
}

// TestSortByKeyEdges covers the keys whose 8-byte prefixes decide
// nothing or mislead a naive comparison.
func TestSortByKeyEdges(t *testing.T) {
	for _, keys := range [][]string{
		nil,
		{""},
		{"b", "", "a"},
		{"page1234x", "page12345", "page1234", "page123", "page1234\x00", "page1234\xff", "page12340"},
		{"ab", "ab\x00", "ab\x00\x00", "a\xff", "\x00", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x00", ""},
		{"same", "same", "same", "other", "same"},
		{"12345678", "12345678", "1234567", "123456789", "12345677\xff"},
	} {
		checkSortByKey(t, keys)
		checkSortByKey(t, pastRadixMin(keys))
	}
	// Long cycles: page keys in hash order.
	var keys []string
	for i := 0; i < 3000; i++ {
		keys = append(keys, "page"+strings.Repeat("x", i%3)+strconv.Itoa((i*7919)%3000))
	}
	checkSortByKey(t, keys)
}

// pastRadixMin repeats keys, each copy with a different last key
// dropped, until there are at least radixMin of them: SortByKey then
// radix-sorts them, with runs of equal keys to keep in input order.
func pastRadixMin(keys []string) []string {
	if len(keys) == 0 {
		return nil
	}
	var out []string
	for i := 0; len(out) < radixMin; i++ {
		for j, k := range keys {
			if j != i%len(keys) || len(keys) == 1 {
				out = append(out, k)
			}
		}
	}
	return out
}

// FuzzSortByKey cuts the input into keys at every 0xfe byte, and sorts
// them both as they are and repeated past radixMin.
func FuzzSortByKey(f *testing.F) {
	f.Add([]byte("page1234x\xfepage12345\xfe\xfepage1234\xfea\x00\xfea\xfe\xff\xff\xfe"))
	f.Add([]byte("\x00\xfe\x00\x00\xfe\xfe\xff\xfe12345678\xfe12345678\xfe1234567\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := strings.Split(string(data), "\xfe")
		checkSortByKey(t, keys)
		checkSortByKey(t, pastRadixMin(keys))
	})
}

// unsortedReduce breaks the Finalize contract: it returns its keys in
// reverse order.
type unsortedReduce struct{ *PreciseReduce }

func (r unsortedReduce) Finalize(view EstimateView) []KeyEstimate {
	out := r.PreciseReduce.Finalize(view)
	slices.Reverse(out)
	return out
}

// TestUnsortedFinalizeStillSortsOutputs: Result.Outputs comes out sorted
// and equal to a well-behaved reduce's even when a ReduceLogic returns
// its partition out of order.
func TestUnsortedFinalizeStillSortsOutputs(t *testing.T) {
	input, _ := wordCountInput(t, 256)
	run := func(newReduce func(int) ReduceLogic) *Result {
		return runWordCount(t, &Job{Name: "wordcount", Input: input, NewMapper: wordCountMapper, NewReduce: newReduce, Reduces: 3})
	}
	want := run(func(int) ReduceLogic { return SumReduce() })
	got := run(func(int) ReduceLogic { return unsortedReduce{SumReduce()} })
	if !slices.IsSortedFunc(got.Outputs, func(a, b KeyEstimate) int { return strings.Compare(a.Key, b.Key) }) {
		t.Fatalf("outputs not sorted: %v", got.Outputs)
	}
	if !slices.Equal(got.Outputs, want.Outputs) {
		t.Fatalf("outputs %v, want %v", got.Outputs, want.Outputs)
	}
}
