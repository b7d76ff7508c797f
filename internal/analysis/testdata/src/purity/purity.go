// Package purity exercises the whole-program reach of the purity
// analyzer: the package-variable write lives in the dep package, the
// frontier cases (interfaces and function values) demonstrate the
// //approx:pure escape hatch, and calls into non-allowlisted external
// packages are reported.
package purity

import (
	"hash/crc32"
	"hash/maphash"
	"os"
	"strconv"

	"example.test/purity/dep"
)

// handlers carries per-record callbacks.
type handlers struct {
	// onRec implementations are contractually pure.
	//
	//approx:pure
	onRec func(float64) float64
	// other carries no contract.
	other func(float64) float64
}

// Meter doubles for vtime.Meter: implementations are contractually
// pure.
//
//approx:pure
type Meter interface{ Charge(float64) }

// Raw carries no purity contract.
type Raw interface{ Touch() }

//approx:compute
func root(h *handlers, v float64) float64 {
	v = dep.Process(v) // violation is inside dep, reported there
	v = dep.Helper(v)
	v = h.onRec(v)    // pure-marked field: trusted
	return h.other(v) // want: purity
}

// localClosures shows the trusted func-value cases: locals bound to
// literals analyzed inline, and parameters filled by a checked caller.
//
//approx:compute
func localClosures(v float64, f func(float64) float64) float64 {
	g := func(x float64) float64 { return x + v }
	return g(f(v))
}

//approx:compute
func ifaces(m Meter, r Raw) {
	m.Charge(1)
	r.Touch() // want: purity
}

// external calls an allowlisted stdlib package (strconv: fine) and a
// non-allowlisted one (os: reported).
//
//approx:compute
func external(n int) string {
	pid := os.Getpid() // want: purity
	return strconv.Itoa(n + pid)
}

// seededInterner is the key interner not to write: hash/maphash draws
// its seed per process, so slot order — and every timing and profile
// that follows from probe lengths — changes from run to run for one
// input. Package hash is otherwise trusted (crc32 below is a fixed
// function of its bytes).
type seededInterner struct {
	seed  maphash.Seed
	slots []int32
}

//approx:compute
func (t *seededInterner) slot(key string) int {
	h := maphash.String(t.seed, key) // want: purity
	return int(h % uint64(len(t.slots)))
}

//approx:compute
func fixedHash(key string) uint32 {
	return crc32.ChecksumIEEE([]byte(key))
}
