package workload

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The four parsers below are the strings.SplitN + strconv versions the
// allocation-free ones replaced, kept verbatim as the oracle: Parse*
// must accept and reject exactly the lines these did, with the same
// field values.

func splitParseAccess(line string) (Access, bool) {
	parts := strings.SplitN(line, "\t", 4)
	if len(parts) != 4 {
		return Access{}, false
	}
	ts, err1 := strconv.ParseInt(parts[0], 10, 64)
	b, err2 := strconv.Atoi(parts[3])
	if err1 != nil || err2 != nil {
		return Access{}, false
	}
	return Access{Epoch: ts, Project: parts[1], Page: parts[2], Bytes: b}, true
}

func splitParseEdit(line string) (Edit, bool) {
	parts := strings.SplitN(line, "\t", 4)
	if len(parts) != 4 {
		return Edit{}, false
	}
	ts, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return Edit{}, false
	}
	return Edit{Epoch: ts, Project: parts[1], Editor: parts[2], Page: parts[3]}, true
}

func splitParseWebAccess(line string) (WebAccess, bool) {
	parts := strings.SplitN(line, "\t", 6)
	if len(parts) != 6 {
		return WebAccess{}, false
	}
	hour, err1 := strconv.Atoi(parts[1])
	b, err2 := strconv.Atoi(parts[3])
	if err1 != nil || err2 != nil || hour < 0 || hour >= 168 {
		return WebAccess{}, false
	}
	return WebAccess{Client: parts[0], HourOfWeek: hour, Path: parts[2], Bytes: b, Agent: parts[4], Attack: parts[5]}, true
}

func splitParseSeed(line string) (int64, bool) {
	parts := strings.SplitN(line, "\t", 2)
	if len(parts) != 2 || parts[0] != "seed" {
		return 0, false
	}
	s, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return s, true
}

// parseLines is the accept/reject table: well-formed lines of each
// log, then every way a line goes wrong — too few fields, extra tabs
// in the last field, empty fields, signs, non-numeric and out-of-range
// numbers.
var parseLines = []string{
	"1700000000\tproj3\tpage17\t4096",
	"c9\t35\t/p1\t100\tFirefox\t-",
	"c9\t167\t/p1\t100\tFirefox\tsqlinj",
	"1700000000\tproj3\teditor8\tpage17",
	"seed\t123456789",
	"seed\t-5",
	"seed\t+5",
	"",
	"\t",
	"\t\t",
	"\t\t\t",
	"\t\t\t\t\t",
	"garbage",
	"1\t2",
	"1\t2\t3",
	"1\t2\t3\t4",
	"1\t2\t3\t4\t5",
	"1\t2\t3\t4\t5\t6",
	"1\t2\t3\t4\t5\t6\t7",
	"1\tproj\tpage\t4\textra",
	"1\tproj\tpage\t4\t",
	"1\tproj\teditor\tpage\twith\ttabs",
	"\tproj\tpage\t4",
	"1\t\t\t4",
	"1\tproj\tpage\t",
	"x\tproj\tpage\t4",
	"1\tproj\tpage\tx",
	"1.5\tproj\tpage\t4",
	"1\tproj\tpage\t4.0",
	" 1\tproj\tpage\t4",
	"1 \tproj\tpage\t4",
	"+1\tproj\tpage\t-4",
	"-1\tproj\tpage\t+4",
	"-\tproj\tpage\t4",
	"+\tproj\tpage\t4",
	"--1\tproj\tpage\t4",
	"1_000\tproj\tpage\t4",
	"0x10\tproj\tpage\t4",
	"007\tproj\tpage\t004",
	"9223372036854775807\tproj\tpage\t9223372036854775807",
	"9223372036854775808\tproj\tpage\t4",
	"-9223372036854775808\tproj\tpage\t-9223372036854775808",
	"-9223372036854775809\tproj\tpage\t4",
	"1\tproj\tpage\t9223372036854775808",
	"18446744073709551616\tproj\tpage\t4",
	"99999999999999999999999\tproj\tpage\t4",
	"c\t-1\t/p\t1\tua\t-",
	"c\t168\t/p\t1\tua\t-",
	"c\t0\t/p\t1\tua\t-",
	"c\tx\t/p\t1\tua\t-",
	"c\t5\t/p\tx\tua\t-",
	"c\t5\t/p\t1\tua\ta\tb",
	"c\t5\t/p\t1\tua\t",
	"\t5\t\t1\t\t",
	"seed",
	"seed\t",
	"seed\tx",
	"seed\t1\t2",
	"Seed\t1",
	"\t1",
	"seed 1",
}

func TestParseMatchesSplitN(t *testing.T) {
	for _, line := range parseLines {
		a, aok := ParseAccess(line)
		if want, wok := splitParseAccess(line); a != want || aok != wok {
			t.Errorf("ParseAccess(%q) = %+v, %v; SplitN version %+v, %v", line, a, aok, want, wok)
		}
		e, eok := ParseEdit(line)
		if want, wok := splitParseEdit(line); e != want || eok != wok {
			t.Errorf("ParseEdit(%q) = %+v, %v; SplitN version %+v, %v", line, e, eok, want, wok)
		}
		w, wbok := ParseWebAccess(line)
		if want, wok := splitParseWebAccess(line); w != want || wbok != wok {
			t.Errorf("ParseWebAccess(%q) = %+v, %v; SplitN version %+v, %v", line, w, wbok, want, wok)
		}
		s, sok := ParseSeed(line)
		if want, wok := splitParseSeed(line); s != want || sok != wok {
			t.Errorf("ParseSeed(%q) = %v, %v; SplitN version %v, %v", line, s, sok, want, wok)
		}
	}
}

// TestParseIntMatchesStrconv checks parseInt against strconv.ParseInt
// at both widths: the table's number fields, the values around each
// limit, and seeded random digit strings with signs and junk mixed in.
func TestParseIntMatchesStrconv(t *testing.T) {
	cases := []string{"", "0", "-0", "+0", "1", "-1", "+", "-", "+-1", "00", "1a", "a1", " 1", "1 ", "١",
		"2147483647", "2147483648", "-2147483648", "-2147483649",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616", "92233720368547758070", "00000000000000000000001"}
	rng := rand.New(rand.NewSource(13))
	const alphabet = "0123456789+-_ x"
	for i := 0; i < 4000; i++ {
		n := 1 + rng.Intn(21)
		b := make([]byte, n)
		for j := range b {
			if rng.Intn(8) == 0 {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			} else {
				b[j] = alphabet[rng.Intn(10)]
			}
		}
		if rng.Intn(3) == 0 {
			b[0] = "+-"[rng.Intn(2)]
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		for _, bits := range []int{32, 64} {
			want, err := strconv.ParseInt(s, 10, bits)
			got, ok := parseInt(s, bits)
			if ok != (err == nil) || (ok && got != want) {
				t.Errorf("parseInt(%q, %d) = %d, %v; strconv %d, %v", s, bits, got, ok, want, err)
			}
		}
	}
}

// TestParseDoesNotAllocate is the guard on the per-record cost every
// log job pays first: no Parse* call may allocate, whether the line is
// accepted or rejected.
func TestParseDoesNotAllocate(t *testing.T) {
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for _, line := range parseLines {
			if a, ok := ParseAccess(line); ok {
				sink += a.Bytes
			}
			if e, ok := ParseEdit(line); ok {
				sink += len(e.Page)
			}
			if w, ok := ParseWebAccess(line); ok {
				sink += w.Bytes
			}
			if s, ok := ParseSeed(line); ok {
				sink += int(s)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Parse* over %d lines allocated %v times per run, want 0", len(parseLines), allocs)
	}
	_ = sink
}
