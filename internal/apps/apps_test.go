package apps

import (
	"io"
	"math"
	"strings"
	"testing"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/workload"
)

func appEngine() *cluster.Engine {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.MapSlotsPerServer = 4
	return cluster.New(cfg)
}

func smallWiki() workload.WikiDump {
	return workload.WikiDump{Blocks: 16, ArticlesPerBlock: 300, LinkUniverse: 500, MeanLinks: 5, Seed: 4}
}

func smallLog() workload.AccessLog {
	return workload.AccessLog{Blocks: 16, LinesPerBlock: 800, Projects: 40, Pages: 400, Seed: 6}
}

func smallWeb() workload.WebLog {
	return workload.WebLog{Blocks: 16, LinesPerBlock: 800, Clients: 200, Attackers: 10, AttackRate: 0.1, Seed: 8}
}

func run(t *testing.T, job *mapreduce.Job) *mapreduce.Result {
	t.Helper()
	res, err := mapreduce.Run(appEngine(), job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runPair executes an app precisely and approximately and returns both.
func runPair(t *testing.T, build func(Options) *mapreduce.Job, ctl mapreduce.Controller) (precise, apx *mapreduce.Result) {
	t.Helper()
	precise = run(t, build(Options{Seed: 1}))
	apx = run(t, build(Options{Seed: 1, Controller: ctl}))
	return precise, apx
}

// checkApproxClose verifies the approximate totals track the precise
// ones for the heaviest keys.
func checkApproxClose(t *testing.T, precise, apx *mapreduce.Result, relTol float64) {
	t.Helper()
	checked := 0
	for _, p := range precise.Outputs {
		if p.Est.Value < 200 {
			continue // light keys: sampling noise dominates
		}
		a, ok := apx.Output(p.Key)
		if !ok {
			continue // rare keys may be missed entirely (Section 3.1)
		}
		if rel := math.Abs(a.Est.Value-p.Est.Value) / p.Est.Value; rel > relTol {
			t.Errorf("key %s: approx %v vs precise %v (rel %.3f)", p.Key, a.Est.Value, p.Est.Value, rel)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no heavy keys compared")
	}
}

func TestWikiLengthPreciseVsApprox(t *testing.T) {
	input := smallWiki().File("wiki")
	build := func(o Options) *mapreduce.Job { return WikiLength(input, o) }
	precise, apx := runPair(t, build, approx.NewStatic(0.25, 0))
	if precise.MaxRelErr() != 0 {
		t.Error("precise run should be exact")
	}
	checkApproxClose(t, precise, apx, 0.4)
	if apx.Counters.ItemsProcessed >= apx.Counters.ItemsTotal {
		t.Error("sampling should process fewer items")
	}
}

// binCounter is an Emitter that only counts what it is handed.
type binCounter struct{ n float64 }

func (c *binCounter) Emit(_ string, v float64) { c.n += v }

// TestWikiLengthMapDoesNotAllocate is the guard on WikiLength's map: a
// size-only parse and a bin label from a table, where ParseArticle and a
// formatted label allocated four times a record.
func TestWikiLengthMapDoesNotAllocate(t *testing.T) {
	input := smallWiki().File("wiki")
	rc := input.Blocks[0].Open()
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	mapper := WikiLength(input, Options{Seed: 1}).NewMapper()
	var c binCounter
	i := 0
	allocs := testing.AllocsPerRun(len(lines), func() {
		mapper.Map(mapreduce.Record{Value: lines[i%len(lines)]}, &c)
		i++
	})
	if allocs != 0 {
		t.Errorf("WikiLength's map allocated %v times a record, want 0", allocs)
	}
	if c.n == 0 {
		t.Error("WikiLength's map emitted nothing")
	}
}

func TestWikiPageRank(t *testing.T) {
	input := smallWiki().File("wiki")
	build := func(o Options) *mapreduce.Job { return WikiPageRank(input, o) }
	precise, apx := runPair(t, build, approx.NewStatic(0.5, 0.25))
	// The most-linked articles must rank the same at the top.
	pTop, _ := precise.Output("A1")
	aTop, ok := apx.Output("A1")
	if !ok || pTop.Est.Value == 0 {
		t.Fatal("A1 should be present in both runs")
	}
	if rel := math.Abs(aTop.Est.Value-pTop.Est.Value) / pTop.Est.Value; rel > 0.4 {
		t.Errorf("A1 in-links: %v vs %v", aTop.Est.Value, pTop.Est.Value)
	}
}

func TestProjectAndPagePopularity(t *testing.T) {
	input := smallLog().File("log")
	pp, ppApx := runPair(t, func(o Options) *mapreduce.Job { return ProjectPopularity(input, o) },
		approx.NewStatic(0.25, 0))
	checkApproxClose(t, pp, ppApx, 0.35)

	pg := run(t, PagePopularity(input, Options{Seed: 2}))
	if len(pg.Outputs) < 50 {
		t.Errorf("page popularity should have many keys, got %d", len(pg.Outputs))
	}
	pt := run(t, PageTraffic(input, Options{Seed: 2}))
	if len(pt.Outputs) == 0 {
		t.Error("page traffic empty")
	}
	rr := run(t, WikiRequestRate(input, Options{Seed: 2}))
	if len(rr.Outputs) == 0 || len(rr.Outputs) > 24 {
		t.Errorf("request rate keys = %d", len(rr.Outputs))
	}
	for _, o := range rr.Outputs {
		if !strings.HasPrefix(o.Key, "hour") {
			t.Errorf("bad hour key %q", o.Key)
		}
	}
}

func TestWebLogApps(t *testing.T) {
	input := smallWeb().File("weblog")
	rate := run(t, WebRequestRate(input, Options{Seed: 3}))
	if len(rate.Outputs) != 168 {
		t.Errorf("hour-of-week keys = %d, want 168", len(rate.Outputs))
	}
	attacks := run(t, AttackFrequencies(input, Options{Seed: 3}))
	if len(attacks.Outputs) == 0 || len(attacks.Outputs) > 10 {
		t.Errorf("attack keys = %d, want <= 10 attackers", len(attacks.Outputs))
	}
	total := run(t, TotalSize(input, Options{Seed: 3}))
	if len(total.Outputs) != 1 || total.Outputs[0].Est.Value <= 0 {
		t.Errorf("total size = %+v", total.Outputs)
	}
	size := run(t, RequestSize(input, Options{Seed: 3}))
	if len(size.Outputs) != 1 || size.Outputs[0].Est.Value < 500 {
		t.Errorf("mean request size = %+v", size.Outputs)
	}
	clients := run(t, Clients(input, Options{Seed: 3}))
	if len(clients.Outputs) < 50 {
		t.Errorf("client keys = %d", len(clients.Outputs))
	}
	browsers := run(t, ClientBrowser(input, Options{Seed: 3}))
	if len(browsers.Outputs) < 3 || len(browsers.Outputs) > 10 {
		t.Errorf("browser keys = %d", len(browsers.Outputs))
	}
}

func TestAttackFrequenciesWideBounds(t *testing.T) {
	// Rare keys get relatively wider intervals than common keys
	// (Section 5.4's point about Attack Frequencies). Compare the mean
	// relative bound across keys under the same sampling ratio.
	input := workload.WebLog{Blocks: 16, LinesPerBlock: 4000, Clients: 200,
		Attackers: 10, AttackRate: 0.05, Seed: 8}.File("weblog-wide")
	rate := run(t, WebRequestRate(input, Options{Seed: 4, Controller: approx.NewStatic(0.2, 0)}))
	attacks := run(t, AttackFrequencies(input, Options{Seed: 4, Controller: approx.NewStatic(0.2, 0)}))
	if len(attacks.Outputs) == 0 {
		t.Fatal("sampling missed every attack")
	}
	meanRel := func(res *mapreduce.Result) float64 {
		s, n := 0.0, 0
		for _, o := range res.Outputs {
			if re := o.Est.RelErr(); !math.IsInf(re, 1) {
				s += re
				n++
			}
		}
		return s / float64(n)
	}
	if meanRel(attacks) <= meanRel(rate) {
		t.Errorf("rare-key app should have wider relative bounds: attacks %.3f vs rate %.3f",
			meanRel(attacks), meanRel(rate))
	}
}

func TestRequestSizeMeanMatchesPrecise(t *testing.T) {
	input := smallWeb().File("weblog")
	precise := run(t, RequestSize(input, Options{Seed: 5}))
	apx := run(t, RequestSize(input, Options{Seed: 5, Controller: approx.NewStatic(0.2, 0)}))
	p := precise.Outputs[0].Est.Value
	a := apx.Outputs[0].Est
	if math.Abs(a.Value-p)/p > 0.25 {
		t.Errorf("mean size approx %v vs precise %v", a.Value, p)
	}
	if a.Err <= 0 {
		t.Errorf("mean estimate should carry a bound, got %v", a.Err)
	}
}

func TestDCPlacementGeography(t *testing.T) {
	geo := DefaultGeography()
	if geo.Cells() != geo.Rows*geo.Cols {
		t.Error("cells")
	}
	// Deterministic per cell.
	if !stats.AlmostEqual(geo.Population(5), geo.Population(5), 0) || !stats.AlmostEqual(geo.SiteCost(7), geo.SiteCost(7), 0) {
		t.Error("geography must be deterministic")
	}
	popCells := 0
	for c := 0; c < geo.Cells(); c++ {
		if geo.Population(c) > 0 {
			popCells++
		}
	}
	if popCells < geo.Cells()/3 || popCells > geo.Cells() {
		t.Errorf("populated cells = %d of %d", popCells, geo.Cells())
	}
	// Annealing improves over a random placement, deterministically.
	randCost := geo.PlacementCost([]int{0, 1, 2, 3})
	best, placement := geo.Anneal(42, 1500)
	if best >= randCost {
		t.Errorf("annealing (%v) should beat corner placement (%v)", best, randCost)
	}
	if len(placement) != geo.K {
		t.Errorf("placement size %d", len(placement))
	}
	best2, _ := geo.Anneal(42, 1500)
	if !stats.AlmostEqual(best, best2, 0) {
		t.Error("annealing must be deterministic per seed")
	}
}

func TestDCPlacementJob(t *testing.T) {
	input := workload.SearchSeeds("seeds", 32, 9)
	precise := run(t, DCPlacement(input, DCPlacementConfig{Iters: 600}, Options{Seed: 1}))
	if len(precise.Outputs) != 1 {
		t.Fatalf("outputs = %+v", precise.Outputs)
	}
	pMin := precise.Outputs[0].Est.Value

	apx := run(t, DCPlacement(input, DCPlacementConfig{Iters: 600},
		Options{Seed: 1, Controller: approx.NewStatic(1, 0.5)}))
	aMin := apx.Outputs[0].Est
	if aMin.Value < pMin {
		t.Errorf("approx min %v cannot beat precise %v on same seeds", aMin.Value, pMin)
	}
	if rel := (aMin.Value - pMin) / pMin; rel > 0.2 {
		t.Errorf("approx min %.1f too far above precise %.1f", aMin.Value, pMin)
	}
	if aMin.Err <= 0 || math.IsInf(aMin.Err, 1) {
		t.Errorf("expected finite GEV bound, got %v", aMin.Err)
	}
	if apx.Counters.MapsCompleted != 16 {
		t.Errorf("dropping 50%% of 32 maps should complete 16: %+v", apx.Counters)
	}
}

func TestDCPlacementTargetError(t *testing.T) {
	input := workload.SearchSeeds("seeds", 48, 9)
	job := DCPlacement(input, DCPlacementConfig{Iters: 400},
		Options{Seed: 1, Controller: &approx.TargetErrorGEV{Target: 0.15, MinMaps: 10}})
	res := run(t, job)
	if res.Counters.MapsCompleted >= 48 {
		t.Errorf("loose GEV target should stop early: %+v", res.Counters)
	}
	if res.MaxRelErr() > 0.15 {
		t.Errorf("bound %.3f exceeds target", res.MaxRelErr())
	}
}

func TestKMeans(t *testing.T) {
	input := KMeansData("points", 12, 500, 4, 7)
	cfg := KMeansConfig{Centroids: [][2]float64{{2, 2}, {12, 2}, {2, 12}, {12, 12}}}
	precise := run(t, KMeansIteration(input, cfg, Options{Seed: 1}))
	pCent := CentroidsFromResult(precise, 4)
	for i, c := range pCent {
		if c[0] == 0 && c[1] == 0 {
			t.Errorf("centroid %d empty", i)
		}
	}
	// User-defined approximation: all tasks subsampled.
	cfg.ApproxRatio = 1
	apx := run(t, KMeansIteration(input, cfg, Options{Seed: 1}))
	aCent := CentroidsFromResult(apx, 4)
	if shift := CentroidShift(pCent, aCent); shift > 1.0 {
		t.Errorf("subsampled centroids shifted too far: %v", shift)
	}
	if apx.RealSecs >= precise.RealSecs {
		t.Logf("note: approx real %.4fs vs precise %.4fs (tiny input; timing noise)", apx.RealSecs, precise.RealSecs)
	}
	// True centers are near (5,5), (15,5), (5,15), (15,15).
	truth := [][2]float64{{5, 5}, {15, 5}, {5, 15}, {15, 15}}
	if d := CentroidShift(pCent, truth); d > 3 {
		t.Errorf("one Lloyd step from good init should approach truth, shift %v", d)
	}
}

func TestVideoEncoding(t *testing.T) {
	input := VideoData("movie", 8, 120, 5)
	precise := run(t, VideoEncoding(input, VideoEncodingConfig{}, Options{Seed: 1}))
	q, _ := precise.Output("quality")
	f, _ := precise.Output("frames")
	if !stats.AlmostEqual(f.Est.Value, 8*120, 1e-9) {
		t.Errorf("frames = %v", f.Est.Value)
	}
	pq := q.Est.Value / f.Est.Value

	apx := run(t, VideoEncoding(input, VideoEncodingConfig{ApproxRatio: 1}, Options{Seed: 1}))
	qa, _ := apx.Output("quality")
	fa, _ := apx.Output("frames")
	aq := qa.Est.Value / fa.Est.Value
	if aq >= pq {
		t.Errorf("approximate encoding should lose quality: %v >= %v", aq, pq)
	}
	if aq < pq*0.7 {
		t.Errorf("quality loss too severe: %v vs %v", aq, pq)
	}
	if apx.RealSecs >= precise.RealSecs {
		t.Errorf("approximate encoding should be faster in real compute: %v >= %v",
			apx.RealSecs, precise.RealSecs)
	}
}

func TestPlainVsTemplateOverhead(t *testing.T) {
	// The approximate stack at ratio 1 must agree exactly with the
	// plain Hadoop classes (the paper's <1% overhead comparison is
	// about time; here we check result equality).
	input := smallWiki().File("wiki")
	plain := run(t, WikiLength(input, Options{Seed: 1, Plain: true}))
	templ := run(t, WikiLength(input, Options{Seed: 1}))
	if len(plain.Outputs) != len(templ.Outputs) {
		t.Fatalf("key counts differ: %d vs %d", len(plain.Outputs), len(templ.Outputs))
	}
	for i := range plain.Outputs {
		p, q := plain.Outputs[i], templ.Outputs[i]
		if p.Key != q.Key || !stats.AlmostEqual(p.Est.Value, q.Est.Value, 0) {
			t.Errorf("mismatch at %s: %v vs %v", p.Key, p.Est.Value, q.Est.Value)
		}
	}
}

func TestTargetErrorOnProjectPopularity(t *testing.T) {
	input := workload.AccessLog{Blocks: 32, LinesPerBlock: 1500, Projects: 30, Pages: 300, Seed: 12}.File("log")
	precise := run(t, ProjectPopularity(input, Options{Seed: 2}))
	job := ProjectPopularity(input, Options{
		Seed:       2,
		Controller: &approx.TargetError{Target: 0.05},
		Cost:       cluster.AnalyticCost{T0: 1, Tr: 1e-4, Tp: 1e-3},
	})
	res := run(t, job)
	// The default controller bounds the worst absolute-error key (the
	// paper's reported key); rare projects may have wider relative CIs.
	worstAbs := res.Outputs[0]
	for _, o := range res.Outputs {
		if !math.IsInf(o.Est.Err, 1) && o.Est.Err > worstAbs.Est.Err {
			worstAbs = o
		}
	}
	if worstAbs.Est.RelErr() > 0.05 {
		t.Errorf("bound %.4f exceeds 5%% target", worstAbs.Est.RelErr())
	}
	// Actual error of the worst-bound key should be inside its interval
	// (95% of the time; this seed is deterministic and passes).
	worst := res.Outputs[0]
	for _, o := range res.Outputs {
		if o.Est.Err > worst.Est.Err {
			worst = o
		}
	}
	p, ok := precise.Output(worst.Key)
	if !ok {
		t.Fatalf("precise missing key %s", worst.Key)
	}
	if p.Est.Value < worst.Est.Lo() || p.Est.Value > worst.Est.Hi() {
		t.Errorf("true value %v outside [%v, %v] for %s",
			p.Est.Value, worst.Est.Lo(), worst.Est.Hi(), worst.Key)
	}
}
