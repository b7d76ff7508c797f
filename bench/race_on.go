//go:build race

package main

// raceEnabled reports that the binary was built with -race, under which
// every timing is several times off; main refuses to measure.
const raceEnabled = true
