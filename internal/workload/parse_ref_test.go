package workload

import (
	"strconv"
	"strings"
	"testing"

	"approxhadoop/internal/dfs"
)

// The five functions below are the strings.Cut + per-digit-range-check
// parsers the cutter-based ones replaced, kept verbatim as the
// reference model: Parse* must accept exactly the lines these accept
// and return exactly their values, zero values on rejection included.

func refParseAccess(line string) (Access, bool) {
	epoch, rest, _ := strings.Cut(line, "\t")
	project, rest, _ := strings.Cut(rest, "\t")
	page, size, ok := strings.Cut(rest, "\t")
	ts, ok1 := refParseInt(epoch, 64)
	b, ok2 := refParseInt(size, strconv.IntSize)
	if !ok || !ok1 || !ok2 {
		return Access{}, false
	}
	return Access{Epoch: ts, Project: project, Page: page, Bytes: int(b)}, true
}

func refParseInt(s string, bits int) (int64, bool) {
	neg := s != "" && s[0] == '-'
	if neg || (s != "" && s[0] == '+') {
		s = s[1:]
	}
	limit := uint64(1)<<(bits-1) - 1 // the largest magnitude accepted
	if neg {
		limit++
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		d := uint64(s[i] - '0')
		if d > 9 || n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		n = -n
	}
	return int64(n), s != ""
}

func refParseEdit(line string) (Edit, bool) {
	epoch, rest, _ := strings.Cut(line, "\t")
	project, rest, _ := strings.Cut(rest, "\t")
	editor, page, ok := strings.Cut(rest, "\t")
	ts, ok1 := refParseInt(epoch, 64)
	if !ok || !ok1 {
		return Edit{}, false
	}
	return Edit{Epoch: ts, Project: project, Editor: editor, Page: page}, true
}

func refParseWebAccess(line string) (WebAccess, bool) {
	client, rest, _ := strings.Cut(line, "\t")
	hourOfWeek, rest, _ := strings.Cut(rest, "\t")
	path, rest, _ := strings.Cut(rest, "\t")
	size, rest, _ := strings.Cut(rest, "\t")
	agent, attack, ok := strings.Cut(rest, "\t")
	hour, ok1 := refParseInt(hourOfWeek, strconv.IntSize)
	b, ok2 := refParseInt(size, strconv.IntSize)
	if !ok || !ok1 || !ok2 || hour < 0 || hour >= 168 {
		return WebAccess{}, false
	}
	return WebAccess{
		Client:     client,
		HourOfWeek: int(hour),
		Path:       path,
		Bytes:      int(b),
		Agent:      agent,
		Attack:     attack,
	}, true
}

func refParseSeed(line string) (int64, bool) {
	tag, seed, ok := strings.Cut(line, "\t")
	if !ok || tag != "seed" {
		return 0, false
	}
	return refParseInt(seed, 64)
}

// refEdgeLines adds to parseLines the cases an integer cutter with a
// digit-count fast path can get wrong: runs of exactly 18, 19 and 20
// digits in a middle and in the last field, the int64 limits with and
// without a sign, signed zeros, bytes just outside '0'..'9', non-ASCII
// digits, and a carriage return before the line end.
var refEdgeLines = []string{
	"+1\tp\tg\t+1",
	"-0\tp\tg\t-0",
	"+0\tp\tg\t+0",
	"999999999999999999\tp\tg\t999999999999999999",     // 18 digits
	"1000000000000000000\tp\tg\t1000000000000000000",   // 19 digits
	"9999999999999999999\tp\tg\t4",                     // 19 digits, above MaxInt64
	"4\tp\tg\t9999999999999999999",                     //
	"10000000000000000000\tp\tg\t4",                    // 20 digits
	"4\tp\tg\t10000000000000000000",                    //
	"00000000000000000000\tp\tg\t00000000000000000001", // 20 digits, small value
	"000000000000000000\tp\tg\t000000000000000000",     // 18 zeros
	"9223372036854775807\tp\tg\t9223372036854775807",
	"9223372036854775808\tp\tg\t9223372036854775807",
	"9223372036854775807\tp\tg\t9223372036854775808",
	"+9223372036854775807\tp\tg\t+9223372036854775807",
	"+9223372036854775808\tp\tg\t1",
	"-9223372036854775808\tp\tg\t-9223372036854775808",
	"-9223372036854775809\tp\tg\t1",
	"18446744073709551615\tp\tg\t1",
	"18446744073709551617\tp\tg\t1", // wraps to 1 in uint64
	"1\tp\tg\t18446744073709551617",
	"1/\tp\tg\t1",
	"1:\tp\tg\t1",
	"/1\tp\tg\t1",
	":1\tp\tg\t1",
	"1\tp\tg\t1/",
	"1\tp\tg\t1:",
	"١\tp\tg\t1", // Arabic-Indic digit one
	"1\tp\tg\t１", // fullwidth digit one
	"1\xb1\tp\tg\t1",
	"1\tp\tg\t1\xb1",
	"1\tp\tg\t1\r",
	"1\r\tp\tg\t1",
	"1\tp\tg\t\r",
	"1\tp\tg\t1\t",
	"1\tp\tg\t1\t2",
	"1\tp\tg\t\t1",
	"1\t\tg\t1",
	"1\tp\t\t1",
	"1\t\t\t1",
	"\t\t\t1",
	"1\t\t\t",
	"1\tp\tg",
	"1\tp",
	"1",
	"1\t",
	"-\tp\tg\t1",
	"1\tp\tg\t-",
	"1\tp\tg\t+",
	"1-\tp\tg\t1",
	"1+1\tp\tg\t1",
	"c\t+5\t/p\t+1\tua\t-",
	"c\t-0\t/p\t-0\tua\t-",
	"c\t167\t/p\t9223372036854775807\tua\tx",
	"c\t168\t/p\t1\tua\tx",
	"c\t000000000000000000167\t/p\t1\tua\tx", // 21 digits, in range
	"c\t000000000000000167\t/p\t1\tua\tx",    // 18 digits, in range
	"c\t9223372036854775807\t/p\t1\tua\tx",
	"c\t9223372036854775808\t/p\t1\tua\tx",
	"c\t-9223372036854775808\t/p\t1\tua\tx",
	"c\t5\t/p\t9223372036854775808\tua\tx",
	"c\t5\t/p\t1\tua",
	"c\t5\t/p\t1",
	"c\t5\t/p\t1\t\t",
	"c\t5\r\t/p\t1\tua\tx",
	"c\t5\t/p\t1\tua\tx\r",
	"c\t\t/p\t1\tua\tx",
	"c\t5\t/p\t\tua\tx",
	"seed\t9223372036854775807",
	"seed\t9223372036854775808",
	"seed\t-9223372036854775808",
	"seed\t999999999999999999",
	"seed\t1000000000000000000",
	"seed\t10000000000000000000",
	"seed\t1\r",
	"seed\t1\t",
	"seed\t\t1",
	"seed\t-0",
	"seeds\t1",
	"see\t1",
	"seed1",
	"1\tp\tg\te\tmore\ttabs",
	"999999999999999999\tp\te\tg",
	"1000000000000000000\tp\te\tg",
	"+\tp\te\tg",
	"\tp\te\tg",
}

// checkAgainstRef compares all four parsers with their reference models
// on one line, failing on the first disagreement in value or verdict,
// and reports which parsers accepted the line.
func checkAgainstRef(t testing.TB, line string) (accepted [4]bool) {
	a, aok := ParseAccess(line)
	if want, wok := refParseAccess(line); a != want || aok != wok {
		t.Fatalf("ParseAccess(%q) = %+v, %v; reference %+v, %v", line, a, aok, want, wok)
	}
	e, eok := ParseEdit(line)
	if want, wok := refParseEdit(line); e != want || eok != wok {
		t.Fatalf("ParseEdit(%q) = %+v, %v; reference %+v, %v", line, e, eok, want, wok)
	}
	w, wbok := ParseWebAccess(line)
	if want, wok := refParseWebAccess(line); w != want || wbok != wok {
		t.Fatalf("ParseWebAccess(%q) = %+v, %v; reference %+v, %v", line, w, wbok, want, wok)
	}
	s, sok := ParseSeed(line)
	if want, wok := refParseSeed(line); s != want || sok != wok {
		t.Fatalf("ParseSeed(%q) = %v, %v; reference %v, %v", line, s, sok, want, wok)
	}
	return [4]bool{aok, eok, wbok, sok}
}

func TestParseMatchesReferenceTable(t *testing.T) {
	for _, line := range parseLines {
		checkAgainstRef(t, line)
	}
	for _, line := range refEdgeLines {
		checkAgainstRef(t, line)
	}
}

// TestParseMatchesReferenceRandom drives 3 M seeded lines over the
// alphabet "0-9 \t + - a" through every parser and its reference.
// Lines are built field by field — mostly digit runs of 0 to 21 bytes,
// one byte in twelve drawn from the whole alphabet, one line in five
// opened with the "seed" tag — so a useful share is accepted by each
// parser and every rejection reason is hit many thousands of times.
func TestParseMatchesReferenceRandom(t *testing.T) {
	n := 3_000_000
	if testing.Short() {
		n = 100_000
	}
	const alphabet = "0123456789\t+-a"
	// An xorshift64 step per byte: math/rand here costs more than the
	// eight parses the line then gets.
	x := uint64(18)
	intn := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int((x >> 11) % uint64(n))
	}
	var accepted [4]int
	buf := make([]byte, 0, 256)
	for i := 0; i < n; i++ {
		buf = buf[:0]
		fields := 1 + intn(7)
		if intn(5) == 0 {
			buf = append(buf, "seed\t"...)
			fields = 1 + intn(2)
		}
		for f := 0; f < fields; f++ {
			if f > 0 {
				buf = append(buf, '\t')
			}
			var width int
			switch intn(4) {
			case 0:
				width = intn(4)
			case 1:
				width = 17 + intn(5)
			default:
				width = intn(22)
			}
			for j := 0; j < width; j++ {
				if intn(12) == 0 {
					buf = append(buf, alphabet[intn(len(alphabet))])
				} else {
					buf = append(buf, alphabet[intn(10)])
				}
			}
		}
		for p, ok := range checkAgainstRef(t, string(buf)) {
			if ok {
				accepted[p]++
			}
		}
	}
	t.Logf("accepted of %d lines: access %d, edit %d, web %d, seed %d", n, accepted[0], accepted[1], accepted[2], accepted[3])
	for i, name := range []string{"ParseAccess", "ParseEdit", "ParseWebAccess", "ParseSeed"} {
		if accepted[i] < n/1000 {
			t.Errorf("%s accepted only %d of %d random lines: the generator no longer exercises its accept path", name, accepted[i], n)
		}
	}
}

func fuzzSeedCorpus(f *testing.F) {
	for _, line := range parseLines {
		f.Add(line)
	}
	for _, line := range refEdgeLines {
		f.Add(line)
	}
}

// FuzzParseAccess checks the three epoch-first parsers (and ParseSeed,
// which shares the integer cutter) against their references.
func FuzzParseAccess(f *testing.F) {
	fuzzSeedCorpus(f)
	f.Fuzz(func(t *testing.T, line string) { checkAgainstRef(t, line) })
}

// FuzzParseWebAccess is the same property under its own corpus, so the
// six-field shape gets coverage-guided mutation of its own.
func FuzzParseWebAccess(f *testing.F) {
	fuzzSeedCorpus(f)
	f.Fuzz(func(t *testing.T, line string) {
		got, ok := ParseWebAccess(line)
		if want, wok := refParseWebAccess(line); got != want || ok != wok {
			t.Fatalf("ParseWebAccess(%q) = %+v, %v; reference %+v, %v", line, got, ok, want, wok)
		}
	})
}

// benchLines returns the 2048 lines of one block of f, as its generator
// writes them. Field widths change from line to line the way they do in
// a job's input, which a handful of fixed lines cycled through would
// hide: the branch predictor learns a short cycle, and most of what a
// byte-loop parser costs on real input is the loop exits it cannot
// predict.
func benchLines(b *testing.B, f *dfs.File) []string {
	lines := blockLines(b, f.Blocks[0])
	if len(lines) != 2048 {
		b.Fatalf("block has %d lines, want 2048", len(lines))
	}
	return lines
}

var benchSink int

func BenchmarkParseAccess(b *testing.B) {
	log := DefaultAccessLog()
	log.Blocks, log.LinesPerBlock = 1, 2048
	lines := benchLines(b, log.File("access"))
	run := func(name string, parse func(string) (Access, bool)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if a, ok := parse(lines[i&2047]); ok {
					benchSink += a.Bytes
				}
			}
		})
	}
	run("new", ParseAccess)
	run("ref", refParseAccess)
	// The spelling the mappers use: no 56-byte result to hand back.
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		var a Access
		for i := 0; i < b.N; i++ {
			if a.Parse(lines[i&2047]) {
				benchSink += a.Bytes
			}
		}
	})
}

func BenchmarkParseEdit(b *testing.B) {
	log := DefaultEditLog()
	log.Blocks, log.LinesPerBlock = 1, 2048
	lines := benchLines(b, log.File("edits"))
	run := func(name string, parse func(string) (Edit, bool)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if e, ok := parse(lines[i&2047]); ok {
					benchSink += len(e.Editor)
				}
			}
		})
	}
	run("new", ParseEdit)
	run("ref", refParseEdit)
}

func BenchmarkParseWebAccess(b *testing.B) {
	log := DefaultWebLog()
	log.Blocks, log.LinesPerBlock = 1, 2048
	lines := benchLines(b, log.File("web"))
	run := func(name string, parse func(string) (WebAccess, bool)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w, ok := parse(lines[i&2047]); ok {
					benchSink += w.Bytes
				}
			}
		})
	}
	run("new", ParseWebAccess)
	run("ref", refParseWebAccess)
}
