// Package bench poses as a nested module's package.
package bench

import "example.test/internal/dead"

// Run calls an internal function nothing in the loaded module calls.
func Run() int { return dead.BenchOnly() }
