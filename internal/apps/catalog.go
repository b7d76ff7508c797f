package apps

import (
	"approxhadoop/internal/approx"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

// Dataset names a generated input catalog entries run over; the name
// doubles as the generated file's name.
type Dataset string

// The generated datasets.
const (
	WikiDump    Dataset = "wiki-dump"
	AccessLog   Dataset = "wiki-access-log"
	WebLog      Dataset = "webserver-log"
	EditLog     Dataset = "wiki-edit-log"
	SearchSeeds Dataset = "dc-seeds"
	Points      Dataset = "points"
	Frames      Dataset = "movie"
)

// Scaled multiplies a record count by scale, keeping at least 10.
func Scaled(n int, scale float64) int {
	return max(int(float64(n)*scale), 10)
}

// File generates the dataset at the shape approxrun and the harness
// run it: the generator's defaults with the records per block scaled
// by scale. seed seeds the search seeds, points and frames; the logs
// and the dump keep their generators' default seeds.
func (d Dataset) File(scale float64, seed int64) *dfs.File {
	name := string(d)
	switch d {
	case WikiDump:
		w := workload.DefaultWikiDump()
		w.ArticlesPerBlock = Scaled(w.ArticlesPerBlock, scale)
		return w.File(name)
	case AccessLog:
		a := workload.DefaultAccessLog()
		a.LinesPerBlock = Scaled(a.LinesPerBlock, scale)
		return a.File(name)
	case WebLog:
		w := workload.DefaultWebLog()
		w.LinesPerBlock = Scaled(w.LinesPerBlock, scale)
		return w.File(name)
	case EditLog:
		e := workload.DefaultEditLog()
		e.LinesPerBlock = Scaled(e.LinesPerBlock, scale)
		return e.File(name)
	case SearchSeeds:
		return workload.SearchSeeds(name, 80, seed)
	case Points:
		return KMeansData(name, 40, Scaled(1000, scale), 4, seed)
	case Frames:
		return VideoData(name, 40, Scaled(200, scale), seed)
	}
	return nil
}

// Entry is one catalog application: exactly one of Batch and Stream is
// set. Batch builds the MapReduce job over input, scale sizing the
// per-task work an input does not carry (DCPlacement's annealing
// iterations); Stream builds the continuous query over input replayed
// as a live stream.
type Entry struct {
	Name    string  // kebab-case, as every CLI and job spec names it
	Row     Spec    // Table 1 row; none for the stream scenarios, which Table 1 predates
	Dataset Dataset // the generated input the entry runs over
	Batch   func(input *dfs.File, scale float64, opts SketchOptions) *mapreduce.Job
	Stream  func(input *dfs.File, opts StreamOptions) *stream.Pipeline
}

// Catalog lists every application, batch entries in the paper's Table
// 1 order followed by the sketch-plane and stream scenarios.
var Catalog = []Entry{
	{Name: "wiki-length", Row: Spec{"WikiLength", "data analysis", "Wikipedia dump", true, true, false, "MS"}, Dataset: WikiDump, Batch: batch(WikiLength)},
	{Name: "wiki-page-rank", Row: Spec{"WikiPageRank", "data analysis", "Wikipedia dump", true, true, false, "MS"}, Dataset: WikiDump, Batch: batch(WikiPageRank)},
	{Name: "wiki-request-rate", Row: Spec{"RequestRate(wiki)", "log processing", "Wikipedia log", true, true, false, "MS"}, Dataset: AccessLog, Batch: batch(WikiRequestRate)},
	{Name: "project-popularity", Row: Spec{"ProjectPopularity", "log processing", "Wikipedia log", true, true, false, "MS"}, Dataset: AccessLog, Batch: batch(ProjectPopularity)},
	{Name: "page-popularity", Row: Spec{"PagePopularity", "log processing", "Wikipedia log", true, true, false, "MS"}, Dataset: AccessLog, Batch: batch(PagePopularity)},
	{Name: "page-traffic", Row: Spec{"PageTraffic", "log processing", "Wikipedia log", true, true, false, "MS"}, Dataset: AccessLog, Batch: batch(PageTraffic)},
	{Name: "total-size", Row: Spec{"TotalSize", "log processing", "Webserver log", true, true, false, "MS"}, Dataset: WebLog, Batch: batch(TotalSize)},
	{Name: "request-size", Row: Spec{"RequestSize", "log processing", "Webserver log", true, true, false, "MS"}, Dataset: WebLog, Batch: batch(RequestSize)},
	{Name: "clients", Row: Spec{"Clients", "log processing", "Webserver log", true, true, false, "MS"}, Dataset: WebLog, Batch: batch(Clients)},
	{Name: "client-browser", Row: Spec{"ClientBrowser", "log processing", "Webserver log", true, true, false, "MS"}, Dataset: WebLog, Batch: batch(ClientBrowser)},
	{Name: "web-request-rate", Row: Spec{"RequestRate(web)", "log processing", "Webserver log", true, true, false, "MS"}, Dataset: WebLog, Batch: batch(WebRequestRate)},
	{Name: "attack-frequencies", Row: Spec{"AttackFrequencies", "log processing", "Webserver log", true, true, false, "MS"}, Dataset: WebLog, Batch: batch(AttackFrequencies)},
	{Name: "avg-bytes-per-link", Row: Spec{"AvgBytesPerLink", "data analysis", "Wikipedia dump", true, true, false, "MS3"}, Dataset: WikiDump, Batch: batch(AvgBytesPerLink)},
	{Name: "dc-placement", Row: Spec{"DCPlacement", "optimization", "US/Europe grid", false, true, false, "GEV"}, Dataset: SearchSeeds,
		Batch: func(in *dfs.File, scale float64, o SketchOptions) *mapreduce.Job {
			return DCPlacement(in, DCPlacementConfig{Iters: Scaled(1500, scale)}, o.Options)
		}},
	{Name: "video-encoding", Row: Spec{"VideoEncoding", "video encoding", "Movie frames", false, false, true, "U"}, Dataset: Frames,
		Batch: func(in *dfs.File, _ float64, o SketchOptions) *mapreduce.Job {
			return VideoEncoding(in, VideoEncodingConfig{ApproxRatio: approxRatio(o.Controller)}, o.Options)
		}},
	{Name: "kmeans", Row: Spec{"KMeans", "machine learning", "Point set", false, false, true, "U"}, Dataset: Points,
		Batch: func(in *dfs.File, _ float64, o SketchOptions) *mapreduce.Job {
			return KMeansIteration(in, KMeansConfig{ApproxRatio: approxRatio(o.Controller)}, o.Options)
		}},
	{Name: "wiki-distinct-editors", Row: Spec{"WikiDistinctEditors", "log processing", "Wikipedia edit log", true, true, false, "SK"}, Dataset: EditLog, Batch: sketched(WikiDistinctEditors)},
	{Name: "wiki-top-pages", Row: Spec{"WikiTopPages", "log processing", "Wikipedia log", true, true, false, "SK"}, Dataset: AccessLog, Batch: sketched(WikiTopPages)},
	{Name: "wiki-editor-membership", Row: Spec{"WikiEditorMembership", "log processing", "Wikipedia edit log", true, true, false, "SK"}, Dataset: EditLog, Batch: sketched(WikiEditorMembership)},
	{Name: "edit-rate", Dataset: EditLog, Stream: editRate},
	{Name: "web-bytes", Dataset: WebLog, Stream: webBytes},
}

// Lookup finds the entry named name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Catalog {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Names lists, in catalog order, the names of the entries keep
// accepts; a nil keep accepts all.
func Names(keep func(Entry) bool) []string {
	var out []string
	for _, e := range Catalog {
		if keep == nil || keep(e) {
			out = append(out, e.Name)
		}
	}
	return out
}

// batch adapts a plain builder to Entry.Batch.
func batch(build func(*dfs.File, Options) *mapreduce.Job) func(*dfs.File, float64, SketchOptions) *mapreduce.Job {
	return func(in *dfs.File, _ float64, o SketchOptions) *mapreduce.Job { return build(in, o.Options) }
}

// sketched adapts a sketch-plane builder to Entry.Batch.
func sketched(build func(*dfs.File, SketchOptions) *mapreduce.Job) func(*dfs.File, float64, SketchOptions) *mapreduce.Job {
	return func(in *dfs.File, _ float64, o SketchOptions) *mapreduce.Job { return build(in, o) }
}

// approxRatio is the fraction of map tasks a user-defined job runs
// approximately: the drop ratio of its static controller. Those
// builders take the controller no further, so every task runs.
func approxRatio(c mapreduce.Controller) float64 {
	if s, ok := c.(*approx.Static); ok {
		return s.DropRatio
	}
	return 0
}
