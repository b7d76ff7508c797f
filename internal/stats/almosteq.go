package stats

import "math"

// AlmostEqual reports whether a and b agree to within tol, taken as an
// absolute tolerance for small magnitudes and a relative one for large
// (the difference may be up to tol times the larger magnitude). It is
// the comparison the approxlint `nofloateq` analyzer points exact
// float ==/!= at: estimator outputs travel through enough
// transcendental math that bit-exact equality is never the right
// question.
//
//lint:ignore deadcode the tests of 29 files across the module compare floats through it
func AlmostEqual(a, b, tol float64) bool {
	//lint:ignore nofloateq identical values (including infinities) are equal by definition
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if math.IsInf(diff, 0) {
		return false
	}
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}
