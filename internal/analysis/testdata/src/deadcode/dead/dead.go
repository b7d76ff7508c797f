// Package dead poses as an internal package: each function or method
// below is kept by one deadcode rule, or reported.
package dead

import (
	"encoding/json"
	"fmt"
)

// Record is aliased by the root package.
type Record struct{ k string }

// Key is kept: Record is facade API.
func (r Record) Key() string { return r.k }

// name has no caller, but matches interfaces the program imports.
type name struct{ s string }

// String is kept: it matches fmt.Stringer.
func (n name) String() string { return fmt.Sprint(n.s) }

// MarshalJSON is kept: it matches json.Marshaler.
func (n name) MarshalJSON() ([]byte, error) { return json.Marshal(n.s) }

// Reducer is an interface the program declares.
type Reducer interface{ Reduce(x int) int }

type sum struct{}

// Reduce is kept: it matches Reducer.
func (sum) Reduce(x int) int { return x }

// cache is generic; its method is reached through an instantiation.
type cache[K comparable, V any] struct{ m map[K]V }

// get is kept: cache[string, int].get resolves to it.
func (c *cache[K, V]) get(k K) V { return c.m[k] }

// Lookup is kept: the root package calls it.
func Lookup(k string) int {
	c := &cache[string, int]{m: map[string]int{k: 1}}
	return c.get(k)
}

// double is kept: Map uses it as a value.
func double(x int) int { return 2 * x }

// Map is kept: the root package calls it.
func Map(xs []int) int {
	apply := double
	return apply(xs[0])
}

// BenchOnly is kept: a nested module's package calls it.
func BenchOnly() int { return 1 }

// BenchTestOnly is kept: a nested module's tests count as callers.
func BenchTestOnly() int { return 2 }

func init() {}

// TestOnly has only a test caller.
func TestOnly() int { return 3 } // want: deadcode

// peek has only a test caller.
func (r Record2) peek() string { return r.k } // want: deadcode

// Record2 is not facade API.
type Record2 struct{ k string }

// countdown calls only itself: recursion is no caller.
func countdown(n int) int { // want: deadcode
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}
