package workload

import (
	"math/bits"

	"approxhadoop/internal/zerocopy"
)

// The log parsers read a line of eight to 64 bytes off its tab bitmap:
// tabBits tests every word of the line for tabs at once, each field end
// is the trailing-zero count of what is left of the bitmap after the
// ends before it are cleared, and digitsIn converts an integer field of
// one to eight digits from one word. No field waits for the one before
// it to be cut, and no branch depends on where a field ends. Every other
// line — shorter or longer, or with an integer field that is empty,
// signed or longer than eight digits — goes the general way: cutField
// and cutInt, which work eight bytes at a time from where the previous
// field stopped, and parseInt. A byte loop leaves its field on a branch
// the predictor cannot learn — field widths change from line to line —
// and four or five such exits were most of what a record cost to parse.

const (
	lows   = 0x0101010101010101 // times a byte: that byte in every lane
	highs  = 0x8080808080808080
	low7s  = 0x7f7f7f7f7f7f7f7f
	gather = 0x0102040810204080 // moves bit 8k to bit 56+k, for every lane k
)

// tabLanes returns the tab mask of the eight bytes of w, the lowest byte
// in bit 0. The zero test is exact in every lane: (x&0x7f…)+0x7f…
// cannot carry out of a lane and sets a lane's high bit iff its low
// seven bits are not all zero, or-ing in x adds the lane's own high bit,
// and so the complement's high bits mark exactly the zero lanes.
// cutField's (x-0x01…)&^x borrows across lanes and may flag the lane
// above a real one — a tab followed by a backspace, say — which is
// harmless only where, as there, the lowest flag is all that is read.
// The multiplication gathers the eight flags, each at bit 8k, into the
// top byte; its partial products land on distinct bits, so none carries.
//
//approx:hotpath
func tabLanes(w uint64) uint64 {
	x := w ^ lows*'\t'
	z := ^((x&low7s + low7s) | x | low7s) // a lane's high bit: the lane is zero
	return (z >> 7) * gather >> 56
}

// tabBits returns the tab bitmap of s, which is 8 to 64 bytes long: bit
// i is set iff s[i] is a tab. Its words are loaded and tested
// independently: the first half of the line from its start, the second
// half back from its end, overlapping in the middle wherever the length
// is not a multiple of the word count (a byte tested twice sets its bit
// twice). So no load waits for another, and the only branches are on
// which of the lengths 16, 32 and 64 the line is up to. The loads are
// spelled out because a helper for one of them is past the inliner's
// budget.
//
//approx:hotpath
func tabBits(s string) uint64 {
	n := len(s)
	switch {
	case n <= 16:
		return tabLanes(zerocopy.Load64(s)) | tabLanes(zerocopy.Load64(s[n-8:]))<<uint(n-8)
	case n <= 32:
		return tabLanes(zerocopy.Load64(s)) | tabLanes(zerocopy.Load64(s[8:]))<<8 |
			tabLanes(zerocopy.Load64(s[n-16:]))<<uint(n-16) | tabLanes(zerocopy.Load64(s[n-8:]))<<uint(n-8)
	}
	return tabLanes(zerocopy.Load64(s)) | tabLanes(zerocopy.Load64(s[8:]))<<8 |
		tabLanes(zerocopy.Load64(s[16:]))<<16 | tabLanes(zerocopy.Load64(s[24:]))<<24 |
		tabLanes(zerocopy.Load64(s[n-32:]))<<uint(n-32) | tabLanes(zerocopy.Load64(s[n-24:]))<<uint(n-24) |
		tabLanes(zerocopy.Load64(s[n-16:]))<<uint(n-16) | tabLanes(zerocopy.Load64(s[n-8:]))<<uint(n-8)
}

// digitsIn converts the field s[i:j] from w, the word of s loaded at
// p = max(j, 8)-8: ok iff the field is one to eight plain digits, and
// then v is parseInt's value. The shifts leave the field in w's top
// lanes with zeros below it — leading zeros to digits8 — so the digit
// test takes every lane at once: a zero lane neither flags nor carries.
// An empty field, a sign, a ninth digit or any other byte is not ok,
// and the line goes the general way. The caller loads w: with the load
// inside, digitsIn would be too large to inline.
//
//approx:hotpath
func digitsIn(w uint64, p, i, j int) (v int64, ok bool) {
	x := (w ^ lows*'0') >> (8 * uint(i-p)) << (8 * uint(8-(j-i)))
	return int64(digits8(x)), uint(j-i-1) < 8 && ((x+lows*6)|x)&(lows*0xf0) == 0
}

// word returns the up to eight bytes of s from i on as a little-endian
// word, zero above the end of s. Near the end of a line it reads the
// line's last eight bytes and shifts, so only a line shorter than a
// word is assembled bytewise.
//
//approx:hotpath
func word(s string, i int) uint64 {
	if len(s)-i >= 8 {
		return zerocopy.Load64(s[i:])
	}
	if len(s) >= 8 {
		return zerocopy.Load64(s[len(s)-8:]) >> (8 * uint(8-(len(s)-i)))
	}
	var w uint64
	for j := len(s) - 1; j >= i; j-- {
		w = w<<8 | uint64(s[j])
	}
	return w
}

// cutField returns the index of the first tab of s at or after i — the
// end of the field that starts at i — or len(s) when there is none
// (i may be past the end: a field after a missing tab is empty). It
// loads its words itself: going through word costs a call per field,
// 1.7 ns of a 28 ns ParseAccess, and only a field that runs into the
// last seven bytes of a line reaches the byte loop.
//
//approx:hotpath
func cutField(s string, i int) int {
	for ; len(s)-i >= 8; i += 8 {
		x := zerocopy.Load64(s[i:]) ^ lows*'\t'
		// A lane of x is zero where s has a tab; the lowest set bit
		// of m marks the lowest such lane exactly.
		if m := (x - lows) &^ x & highs; m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for ; i < len(s); i++ {
		if s[i] == '\t' {
			return i
		}
	}
	return len(s)
}

// cutInt is cutField for a field that holds a decimal integer of the
// given width: end is the field's end and v, ok are parseInt of the
// field. A run of one to eighteen digits cannot overflow 64 bits, so it
// is converted a word at a time with no range test per digit; a sign, a
// longer run or any other byte sends the field to parseInt.
//
//approx:hotpath
func cutInt(s string, i, bitSize int) (v int64, end int, ok bool) {
	var n uint64
	j := i
	for j < len(s) && j-i <= 16 {
		x := word(s, j) ^ lows*'0' // a digit's lane now holds its value
		// m flags the lanes that are not 0..9, zero padding included;
		// as in cutField, the lowest flag is exact.
		m := ((x + lows*6) | x) & (lows * 0xf0)
		if m == 0 {
			n = n*1e8 + digits8(x)
			j += 8
			continue
		}
		k := bits.TrailingZeros64(m) >> 3 // digits before the first other byte
		n = n*pow10[k] + digits8(x<<(8*uint(8-k)))
		j += k
		break
	}
	if j == i || j-i > 18 || n>>uint(bitSize-1) != 0 || (j < len(s) && s[j] != '\t') {
		end = cutField(s, j)
		v, ok = parseInt(s[min(i, end):end], bitSize)
		return v, end, ok
	}
	return int64(n), j, true
}

// Field and IntField are the cutters' entry for a record held as bytes,
// as the stream plane's are. fieldStart views the line as the string
// the cutters take, without copying; what Field returns points into the
// line.

// fieldStart returns the line as a string and where its idx-th
// tab-separated field starts; ok is false when it has fewer fields.
//
//approx:hotpath
func fieldStart(line []byte, idx int) (s string, i int, ok bool) {
	s = zerocopy.String(line)
	for ; idx > 0; idx-- {
		if i = cutField(s, i) + 1; i > len(s) {
			return s, 0, false
		}
	}
	return s, i, true
}

// Field returns the idx-th tab-separated field of line: empty when the
// field is, nil when the line has fewer fields.
func Field(line []byte, idx int) []byte {
	s, i, ok := fieldStart(line, idx)
	if !ok {
		return nil
	}
	return line[i:cutField(s, i)]
}

// IntField parses the idx-th field of line as a non-negative decimal
// integer: digits only, so a sign, an empty or missing field and
// anything past 63 bits are all not ok.
func IntField(line []byte, idx int) (int64, bool) {
	s, i, ok := fieldStart(line, idx)
	if !ok || i == len(s) || s[i]-'0' > 9 {
		return 0, false
	}
	v, _, ok := cutInt(s, i, 64)
	return v, ok
}

var pow10 = [8]uint64{1, 10, 100, 1000, 10000, 100000, 1000000, 10000000}

// digits8 is the number whose eight decimal digits are the lanes of x,
// most significant lowest: pairs, then fours, then all eight, one
// multiplication each.
func digits8(x uint64) uint64 {
	x = (x * (10<<8 + 1) >> 8) & 0x00ff00ff00ff00ff
	x = (x * (100<<16 + 1) >> 16) & 0x0000ffff0000ffff
	return x * (10000<<32 + 1) >> 32
}

// parseInt is strconv.ParseInt(s, 10, bits) with a bool in place of the
// error: the same strings accepted, the same value, and no *NumError
// allocated for a field that is not a number.
//
//approx:hotpath
func parseInt(s string, bits int) (int64, bool) {
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
