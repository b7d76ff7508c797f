// Package zerocopy holds the data plane's byte-level helpers: the one
// unsafe conversion it is allowed — viewing a byte slice as a string
// without copying — the little-endian word load its hash and field
// cutters read strings with, and the big-endian key prefix its sorts
// compare before whole keys. The framework uses String for records and
// interned keys whose lifetime rules are documented at the call sites
// (Hadoop-style object reuse: a view over a reusable buffer is only
// valid until the buffer's owner next writes it). Code outside the
// record hot path should use ordinary string conversions.
package zerocopy

import "unsafe"

// String returns a string view sharing b's backing array. The caller
// must guarantee b is not mutated while the string is reachable, or
// must bound the string's lifetime to the window before the next
// mutation (the record-reader contract).
func String(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Load64 reads s[0:8] little-endian; the compiler merges it into one
// load and inlines it at every call site.
func Load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// Prefix64 is s's first eight bytes as a big-endian integer, zero
// padded: where two strings' prefixes differ, their integer order is the
// strings' byte order.
func Prefix64(s string) (p uint64) {
	for i := 0; i < 8 && i < len(s); i++ {
		p |= uint64(s[i]) << (56 - 8*i)
	}
	return p
}
