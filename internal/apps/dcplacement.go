package apps

import (
	"math"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/workload"
)

// Geography models the DC-placement optimization domain of Goiri et
// al. (ICDCS'11), as used in Section 5.2: a two-dimensional grid of
// candidate datacenter locations over a populated area. Each cell has
// a deterministic client population and a land/energy cost, both
// derived from the seed, so every map task optimizes the same
// instance.
type Geography struct {
	Rows, Cols   int
	K            int     // datacenters to place
	MaxLatencyMS float64 // latency constraint for every populated cell
	MSPerCell    float64 // network latency per grid-cell distance
	Seed         int64
}

// DefaultGeography matches the paper's setup in spirit: a US-scale
// grid with a 50 ms maximum latency constraint.
func DefaultGeography() Geography {
	return Geography{Rows: 18, Cols: 30, K: 4, MaxLatencyMS: 50, MSPerCell: 4, Seed: 17}
}

// cellHash gives a deterministic pseudo-random value in [0, 1) per
// (geo, cell, salt).
func (g Geography) cellHash(idx, salt int64) float64 {
	x := uint64(g.Seed)*0x9E3779B97F4A7C15 ^ uint64(idx+1)*0xBF58476D1CE4E5B9 ^ uint64(salt+1)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0x2545F4914F6CDD1D
	x ^= x >> 29
	return float64(x%1_000_000) / 1_000_000
}

// Population returns the client population of a cell (0 for ~40% of
// cells, heavy-tailed for the rest — metro areas).
func (g Geography) Population(cell int) float64 {
	u := g.cellHash(int64(cell), 1)
	if u < 0.4 {
		return 0
	}
	v := g.cellHash(int64(cell), 2)
	return math.Pow(v, 3) * 1000 // a few large metros, many small towns
}

// SiteCost returns the fixed cost of building a datacenter in a cell
// (land + energy prices).
func (g Geography) SiteCost(cell int) float64 {
	return 50 + 100*g.cellHash(int64(cell), 3)
}

// Cells returns the number of grid cells.
func (g Geography) Cells() int { return g.Rows * g.Cols }

func (g Geography) dist(a, b int) float64 {
	ar, ac := a/g.Cols, a%g.Cols
	br, bc := b/g.Cols, b%g.Cols
	dr, dc := float64(ar-br), float64(ac-bc)
	return math.Sqrt(dr*dr + dc*dc)
}

// PlacementCost evaluates a placement (K cell indices): the sum of
// site costs plus population-weighted network distance, with a large
// penalty per population unit violating the latency constraint. Lower
// is better.
func (g Geography) PlacementCost(placement []int) float64 {
	cost := 0.0
	for _, dc := range placement {
		cost += g.SiteCost(dc)
	}
	for cell := 0; cell < g.Cells(); cell++ {
		pop := g.Population(cell)
		if pop == 0 {
			continue
		}
		nearest := math.Inf(1)
		for _, dc := range placement {
			if d := g.dist(cell, dc); d < nearest {
				nearest = d
			}
		}
		latency := nearest * g.MSPerCell
		cost += pop * latency * 0.01
		if latency > g.MaxLatencyMS {
			cost += pop * 10 // constraint violation penalty
		}
	}
	return cost
}

// Anneal runs one simulated-annealing search from the given seed and
// returns the best cost found and its placement. Each map task runs
// one independent search (the paper's setup).
func (g Geography) Anneal(seed int64, iters int) (float64, []int) {
	if iters <= 0 {
		iters = 2000
	}
	r := stats.NewRand(seed)
	cur := make([]int, g.K)
	for i := range cur {
		cur[i] = r.Intn(g.Cells())
	}
	curCost := g.PlacementCost(cur)
	best := make([]int, g.K)
	copy(best, cur)
	bestCost := curCost
	t0 := curCost * 0.1
	for it := 0; it < iters; it++ {
		temp := t0 * (1 - float64(it)/float64(iters))
		if temp < 1e-6 {
			temp = 1e-6
		}
		i := r.Intn(g.K)
		old := cur[i]
		cur[i] = r.Intn(g.Cells())
		newCost := g.PlacementCost(cur)
		if newCost <= curCost || r.Float64() < math.Exp((curCost-newCost)/temp) {
			curCost = newCost
			if newCost < bestCost {
				bestCost = newCost
				copy(best, cur)
			}
		} else {
			cur[i] = old
		}
	}
	return bestCost, best
}

// DCPlacementConfig couples the geography with per-map search effort.
type DCPlacementConfig struct {
	Geo   Geography
	Iters int // annealing iterations per map task
}

// DCPlacement builds the optimization job: the input holds one search
// seed per map task (workload.SearchSeeds); every map anneals
// independently and emits the minimum cost it found; the single reduce
// uses the GEV machinery to estimate the achievable minimum and its
// confidence interval (Section 3.2, Figure 2).
func DCPlacement(input *dfs.File, cfg DCPlacementConfig, opts Options) *mapreduce.Job {
	if cfg.Geo.Rows == 0 {
		cfg.Geo = DefaultGeography()
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 2000
	}
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			if seed, ok := workload.ParseSeed(rec.Value); ok {
				cost, _ := cfg.Geo.Anneal(seed, cfg.Iters)
				emit.Emit("min-cost", cost)
			}
		})
	}
	job := opts.job("DCPlacement", input)
	job.Format = mapreduce.TextInputFormat{} // dropping only: no input sampling
	job.NewMapper = mapper
	job.NewReduce = func(int) mapreduce.ReduceLogic { return approx.NewMinReducer() }
	job.Reduces = 1
	if opts.Plain {
		job.NewReduce = func(int) mapreduce.ReduceLogic { return mapreduce.MinReduce() }
	}
	return job
}
