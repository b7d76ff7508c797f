// Package root poses as the module's root package: it aliases one
// internal type, which keeps that type's methods, and calls the
// internal functions the program uses.
package root

import "example.test/internal/dead"

// Record is facade API: Record.Key needs no caller of its own.
type Record = dead.Record

// Use is the program's one caller of the live internal functions.
func Use() int {
	return dead.Lookup("a") + dead.Map([]int{1})
}
