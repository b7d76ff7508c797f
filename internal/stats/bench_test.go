package stats

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkTQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = TQuantile(0.975, float64(1+i%100))
	}
}

// randImpls puts NewRand beside the math/rand construction it
// replaced, so one run shows both ends of the trade: what seeding costs
// by how much the source goes on to draw, and what a draw costs once
// the register is resident.
var randImpls = []struct {
	name string
	new  func(seed int64) *rand.Rand
}{
	{"stats", NewRand},
	{"mathrand", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
}

var randSink float64

func BenchmarkNewRand(b *testing.B) {
	for _, draws := range []int{0, 1, 80, 400, 2000} {
		for _, impl := range randImpls {
			b.Run(fmt.Sprintf("draws=%d/%s", draws, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r := impl.new(int64(i))
					for d := 0; d < draws; d++ {
						randSink += r.Float64()
					}
				}
			})
		}
	}
}

func BenchmarkRandSteady(b *testing.B) {
	for _, impl := range randImpls {
		r := impl.new(1)
		for i := 0; i < 2*rngLen; i++ {
			r.Int63()
		}
		b.Run("Float64/"+impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				randSink += r.Float64()
			}
		})
		b.Run("Int63/"+impl.name, func(b *testing.B) {
			var x int64
			for i := 0; i < b.N; i++ {
				x ^= r.Int63()
			}
			randSink += float64(x)
		})
	}
	// What a sampled byte block pays per line for its keep-mask: one
	// op is one draw, made 64 at a time, beside Float64 < ratio above.
	s, th := NewSource(1), DrawThreshold(0.1)
	for i := 0; i < 2*rngLen; i++ {
		s.Uint64()
	}
	b.Run("BelowMask64/stats", func(b *testing.B) {
		var x uint64
		for i := 0; i < b.N; i += 64 {
			x ^= s.BelowMask(th, 64)
		}
		randSink += float64(x)
	})
	// What a sampled generated block pays per line for its draw: one
	// Below, and BelowMask of one line, which it replaced.
	b.Run("Below/stats", func(b *testing.B) {
		var x int
		for i := 0; i < b.N; i++ {
			if s.Below(th) {
				x++
			}
		}
		randSink += float64(x)
	})
	b.Run("BelowMask1/stats", func(b *testing.B) {
		var x uint64
		for i := 0; i < b.N; i++ {
			x += s.BelowMask(th, 1)
		}
		randSink += float64(x)
	})
}

func BenchmarkNormalQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = NormalQuantile(0.001 + float64(i%997)/1000)
	}
}

func BenchmarkRegIncBeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RegIncBeta(5, 0.5, float64(i%1000)/1000)
	}
}

func BenchmarkTwoStageSum(b *testing.B) {
	ts := TwoStage{N: 200}
	r := NewRand(1)
	for i := 0; i < 100; i++ {
		cs := ClusterSample{M: 1000, Sam: 100}
		for j := 0; j < 100; j++ {
			cs.Stat.Add(r.Float64() * 10)
		}
		ts.Clusters = append(ts.Clusters, cs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ts.Sum(0.95)
	}
}

func BenchmarkGEVFit(b *testing.B) {
	sample := drawGEV(GEV{Mu: 10, Sigma: 2, Xi: 0.1}, 100, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitGEVMaxima(sample); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNelderMead(b *testing.B) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		c := x[1] - x[0]*x[0]
		return a*a + 100*c*c
	}
	for i := 0; i < b.N; i++ {
		_, _ = NelderMead(f, []float64{-1.2, 1}, 0.5, 500)
	}
}

func BenchmarkRunningStatAdd(b *testing.B) {
	var rs RunningStat
	for i := 0; i < b.N; i++ {
		rs.Add(float64(i % 100))
	}
}

// BenchmarkZipf draws ranks at the web log's path universe (1.3, 2000):
// through the outcome table, through the exact round alone (a universe
// above the table's cap), and from math/rand's generator, whose draws
// the other two reproduce.
func BenchmarkZipf(b *testing.B) {
	var sink uint64
	b.Run("table", func(b *testing.B) {
		z := NewZipf(NewRand(1), 1.3, 2000)
		for i := 0; i < b.N; i++ {
			sink += z.Next()
		}
	})
	b.Run("exact", func(b *testing.B) {
		z := NewZipf(NewRand(1), 1.3, zipfTableMaxN+1)
		for i := 0; i < b.N; i++ {
			sink += z.Next()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		z := rand.NewZipf(NewRand(1), 1.3, 1, 1999)
		for i := 0; i < b.N; i++ {
			sink += z.Uint64() + 1
		}
	})
	randSink += float64(sink)
}

// BenchmarkPareto draws the access log's capped byte counts (800, 1.4,
// 5 000 000): through the outcome table, and through the expression
// the table reproduces.
func BenchmarkPareto(b *testing.B) {
	sink := 0
	b.Run("table", func(b *testing.B) {
		p := NewParetoInt(NewRand(1), 800, 1.4, 5_000_000)
		for i := 0; i < b.N; i++ {
			sink += p.Next()
		}
	})
	b.Run("exact", func(b *testing.B) {
		r := NewRand(1)
		for i := 0; i < b.N; i++ {
			sink += min(int(Pareto(r, 800, 1.4)), 5_000_000)
		}
	})
	randSink += float64(sink)
}
