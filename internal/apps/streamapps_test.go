package apps

import (
	"bytes"
	"testing"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/workload"
)

// tsvField and atoiBytes are the byte loops the stream apps cut their
// fields with before they went through workload's word-at-a-time
// cutters, kept verbatim as the reference model: the apps' Stratify and
// Value must return what these return, nil-ness and the implicit zero
// of a malformed value included.

func tsvField(line []byte, idx int) []byte {
	start := 0
	field := 0
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == '\t' {
			if field == idx {
				return line[start:i]
			}
			field++
			start = i + 1
		}
	}
	return nil
}

func atoiBytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// overflows reports whether b is a digit string past 63 bits — the one
// input on which the model and the apps part ways: atoiBytes lets the
// sum wrap and calls the result ok, IntField calls the field malformed.
func overflows(b []byte) bool {
	b = bytes.TrimLeft(b, "0")
	const max = "9223372036854775807"
	if _, ok := atoiBytes(b); !ok || len(b) < len(max) {
		return false
	}
	return len(b) > len(max) || string(b) > max
}

// The two apps' queries, for their extractors.
var (
	editQuery = editRate(workload.EditLog{}.File("stream-input"), StreamOptions{}).Query
	webQuery  = WebBytesStream(workload.WebLog{}, StreamOptions{}).Query
)

// checkStreamFields holds the two apps' extractors to the model on one
// line.
func checkStreamFields(t *testing.T, line []byte) {
	t.Helper()
	sameField := func(what string, got, want []byte) {
		t.Helper()
		if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
			t.Fatalf("%s(%q) = %q (nil %v), model %q (nil %v)", what, line, got, got == nil, want, want == nil)
		}
	}
	sameField("edit-rate Stratify", editQuery.Stratify(line), tsvField(line, 1))
	sameField("web-bytes Stratify", webQuery.Stratify(line), tsvField(line, 0))

	field := tsvField(line, 3)
	n, wantOK := atoiBytes(field)
	want := float64(n)
	if overflows(field) {
		want, wantOK = 0, false
	}
	//lint:ignore nofloateq both sides convert the same int64
	if got, ok := webQuery.Value(line); got != want || ok != wantOK {
		t.Fatalf("web-bytes Value(%q) = %v, %v; model %v, %v", line, got, ok, want, wantOK)
	}
}

// streamFieldSeeds are lines of the shapes the cutters branch on:
// generated ones of both logs, empty fields, missing tabs, values that
// are not digit strings, and lines shorter than the cutters' word.
func streamFieldSeeds(t testing.TB) [][]byte {
	seeds := [][]byte{
		nil, {}, []byte("\t"), []byte("\t\t\t"), []byte("\t\t\t\t\t"), []byte("c1"), []byte("c1\t2"),
		[]byte("c1\t2\t/p\t"), []byte("c1\t2\t/p\t7"), []byte("c1\t2\t/p\t7\t"), []byte("a\tb\tc\td\te\tf\tg"),
		[]byte("c12\t167\t/p1999\t2000000\tMozilla\t-"), []byte("c12\t167\t/p1999\t\tMozilla\t-"),
		[]byte("c12\t167\t/p1999\t12x4\tMozilla\t-"), []byte("c12\t167\t/p1999\t+124\tMozilla\t-"),
		[]byte("c12\t167\t/p1999\t-124\tMozilla\t-"), []byte("c12\t167\t/p1999\t 124\tMozilla\t-"),
		[]byte("c12\t167\t/p1999\t000000000000000000000124\tMozilla\t-"),
		[]byte("c12\t167\t/p1999\t9223372036854775807\tMozilla\t-"), []byte("c12\t167\t/p1999\t9223372036854775808\tMozilla\t-"),
		[]byte("c12\t167\t/p1999\t123456789012345678\tMozilla\t-"), []byte("c12\t167\t/p1999\t99999999999999999999999\tMozilla\t-"),
		[]byte("1234567\tproj3\ted17\tpage9"), []byte("1234567\t\ted17\tpage9"), []byte("1234567\tproj3"), []byte("1234567"),
		[]byte("\x08\t\x08\t\x08\t8\t\x08"), []byte("1\t2\t3\t4\x00"),
	}
	for _, f := range []*dfs.File{
		workload.WebLog{Blocks: 1, LinesPerBlock: 200, Clients: 3000, Attackers: 40, AttackRate: 0.2, Seed: 8}.File("web"),
		workload.EditLog{Blocks: 1, LinesPerBlock: 200, Projects: 40, Editors: 500, Pages: 20000, Seed: 4}.File("edits"),
	} {
		if _, err := f.Blocks[0].Lines(nil, func(line []byte) error {
			seeds = append(seeds, append([]byte(nil), line...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return seeds
}

// TestStreamFieldsMatchModel runs the fuzz property over its seed
// corpus, every prefix of every seed included, so plain `go test`
// covers the cutters' end-of-line paths without the fuzzer.
func TestStreamFieldsMatchModel(t *testing.T) {
	for _, line := range streamFieldSeeds(t) {
		for n := 0; n <= len(line); n++ {
			checkStreamFields(t, line[:n])
		}
	}
}

// TestStreamValueWhereModelDiffers lists what a web-bytes value folds
// as next to what the byte loops made of it. A sign is still malformed
// (IntField takes digits only, where the cutter under it would accept
// one), so the single change is a digit string past 63 bits: it was the
// wrapped sum, it is the implicit zero of a malformed value. No
// generated line carries one; WebLog caps a request at 2 000 000 bytes.
func TestStreamValueWhereModelDiffers(t *testing.T) {
	for _, tc := range []struct {
		field   string
		model   int64
		modelOK bool
		want    float64
		wantOK  bool
	}{
		{"124", 124, true, 124, true},
		{"+124", 0, false, 0, false},
		{"-124", 0, false, 0, false},
		{"", 0, false, 0, false},
		{"9223372036854775807", 9223372036854775807, true, 9223372036854775807, true},
		{"9223372036854775808", -9223372036854775808, true, 0, false},
		{"18446744073709551617", 1, true, 0, false},
		{"00000000000000000000124", 124, true, 124, true},
	} {
		line := []byte("c1\t2\t/p3\t" + tc.field + "\tagent\t-")
		if n, ok := atoiBytes(tsvField(line, 3)); n != tc.model || ok != tc.modelOK {
			t.Errorf("model on %q = %v, %v; the table says %v, %v", tc.field, n, ok, tc.model, tc.modelOK)
		}
		//lint:ignore nofloateq the table holds the exact conversion
		if got, ok := webQuery.Value(line); got != tc.want || ok != tc.wantOK {
			t.Errorf("Value of %q = %v, %v; want %v, %v", tc.field, got, ok, tc.want, tc.wantOK)
		}
	}
}

// FuzzStreamFields holds the stream apps' field extractors to the byte
// loops they replaced, on arbitrary lines.
func FuzzStreamFields(f *testing.F) {
	for _, line := range streamFieldSeeds(f) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) { checkStreamFields(t, line) })
}
