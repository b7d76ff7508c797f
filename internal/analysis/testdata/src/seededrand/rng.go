// Fixture for the seededrand analyzer: top-level math/rand functions
// draw from the process-global source and are forbidden, and so are the
// two constructors stats.NewRand replaces; methods on an injected
// *rand.Rand and the other constructors are fine.
package workload

import "math/rand"

func badGlobal() float64 {
	return rand.Float64() // want: seededrand
}

func badGlobalInt() int {
	return rand.Intn(10) // want: seededrand
}

func badOwnSource(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // want: seededrand seededrand
	return r.Float64()
}

func badBareSource(seed int64) rand.Source {
	return rand.NewSource(seed) // want: seededrand
}

func okInjected(r *rand.Rand) uint64 {
	return rand.NewZipf(r, 1.2, 1, 99).Uint64() + uint64(r.Intn(10))
}
