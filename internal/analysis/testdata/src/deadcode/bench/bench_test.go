package bench

import (
	"testing"

	"example.test/internal/dead"
)

func TestBench(t *testing.T) {
	if Run()+dead.BenchTestOnly() != 3 {
		t.Fatal("Run")
	}
}
