// Package workload generates the synthetic datasets that stand in for
// the paper's inputs: the English Wikipedia article dump (Section 5.2,
// Data Analysis), the Wikipedia access logs (Log Processing and the
// Table 2 scaling series), and a department web-server access log
// (Section 5.4). All generators are deterministic functions of a seed
// and back dfs generated blocks, so multi-terabyte-equivalent inputs
// exist only as block descriptors until a map task reads them.
//
// The generators preserve the statistical properties the paper's
// evaluation depends on: heavy-tailed (Zipf) page/project popularity,
// heavy-tailed article sizes, intra-block locality (consecutive
// records are correlated, which is what widens task-dropping
// confidence intervals relative to in-block sampling), stable hourly
// request rates with a weekly pattern, and rare attack events.
package workload

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/zerocopy"
)

// intSource is the minimal RNG surface dfs generators receive.
type intSource = dfs.RandSource

// lineBuf is a reusable line-formatting buffer for generators. Blocks
// regenerate on every map read, so per-line fmt formatting (which boxes
// every operand) used to dominate the simulator's allocation profile;
// generators instead strconv.Append* into one buffer per block and
// flush it line by line, producing byte-identical output.
type lineBuf []byte

//approx:hotpath
func (b *lineBuf) reset() { *b = (*b)[:0] }

//approx:hotpath
func (b *lineBuf) str(s string) { *b = append(*b, s...) }

//approx:hotpath
func (b *lineBuf) byte(c byte) { *b = append(*b, c) }

//approx:hotpath
func (b *lineBuf) int(v int64) { *b = strconv.AppendInt(*b, v, 10) }

//approx:hotpath
func (b *lineBuf) uint(v uint64) { *b = strconv.AppendUint(*b, v, 10) }

//approx:hotpath
func (b *lineBuf) flush(w io.Writer) error {
	_, err := w.Write(*b)
	return err
}

// ---------------------------------------------------------------------------
// Wikipedia article dump
// ---------------------------------------------------------------------------

// WikiDump describes a synthetic Wikipedia article dump. Each line is
// one article: "id<TAB>size<TAB>link link link ...".
type WikiDump struct {
	Blocks           int   // number of 64MB-equivalent blocks (map tasks)
	ArticlesPerBlock int   // articles per block
	LinkUniverse     int   // articles that can be linked to
	MeanLinks        int   // mean outgoing links per article
	Seed             int64 // generator seed
}

// DefaultWikiDump is a laptop-scale analog of the May 2014 snapshot
// (161 blocks in the paper).
func DefaultWikiDump() WikiDump {
	return WikiDump{Blocks: 161, ArticlesPerBlock: 2000, LinkUniverse: 20000, MeanLinks: 8, Seed: 1}
}

// File materializes the dump as a generated dfs file. The generator
// literal runs once per block read, per line — hot-path rules apply.
//
//approx:hotpath
func (w WikiDump) File(name string) *dfs.File {
	if w.Blocks <= 0 {
		w.Blocks = 1
	}
	if w.ArticlesPerBlock <= 0 {
		w.ArticlesPerBlock = 100
	}
	if w.LinkUniverse <= 0 {
		w.LinkUniverse = 1000
	}
	if w.MeanLinks <= 0 {
		w.MeanLinks = 5
	}
	gen := func(idx int, r intSource, bw io.Writer) error {
		rr := stats.NewRand(r.Int63())
		zipf := stats.NewZipf(rr, 1.3, uint64(w.LinkUniverse))
		links := stats.NewParetoInt(rr, float64(w.MeanLinks)/2, 1.5, 60)
		// Intra-block locality: articles in the same block share a
		// size regime (they were dumped together), like the paper's
		// observation that "data within blocks usually has locality".
		blockBias := 0.6 + rr.Float64()
		var lb lineBuf
		for i := 0; i < w.ArticlesPerBlock; i++ {
			id := idx*w.ArticlesPerBlock + i
			// The size's xm is the block's own, so it has no table
			// to share (stats.ParetoInt) and runs the expression.
			size := int(stats.Pareto(rr, 300*blockBias, 1.3))
			if size > 2_000_000 {
				size = 2_000_000
			}
			nLinks := links.Next()
			lb.reset()
			lb.byte('A')
			lb.int(int64(id))
			lb.byte('\t')
			lb.int(int64(size))
			lb.byte('\t')
			for l := 0; l < nLinks; l++ {
				if l > 0 {
					lb.byte(' ')
				}
				lb.byte('A')
				lb.uint(zipf.Next())
			}
			lb.byte('\n')
			if err := lb.flush(bw); err != nil {
				return err
			}
		}
		return nil
	}
	estSize := int64(w.ArticlesPerBlock) * 64
	return dfs.GeneratedFile(name, w.Blocks, w.Seed, estSize, int64(w.ArticlesPerBlock), gen)
}

// Article is one parsed dump record.
type Article struct {
	ID    string
	Size  int
	Links []string
}

// ParseArticle parses one dump line. Malformed lines yield ok=false
// (and should be skipped, as Hadoop text jobs conventionally do).
func ParseArticle(line string) (Article, bool) {
	parts := strings.SplitN(line, "\t", 3)
	if len(parts) < 2 {
		return Article{}, false
	}
	size, err := strconv.Atoi(parts[1])
	if err != nil {
		return Article{}, false
	}
	a := Article{ID: parts[0], Size: size}
	if len(parts) == 3 && parts[2] != "" {
		a.Links = strings.Fields(parts[2])
	}
	return a, true
}

// ParseArticleSize is ParseArticle's Size alone: it accepts exactly the
// lines ParseArticle accepts and returns the same size, without
// splitting off the links, which is all WikiLength reads. A line with
// no tab has its size field start past its end, where it is empty.
//
//approx:hotpath
func ParseArticleSize(line string) (int, bool) {
	size, _, ok := cutInt(line, cutField(line, 0)+1, strconv.IntSize)
	return int(size), ok
}

// sizeBins holds SizeBin's 64 labels, "1B" to "9223372036854775808B".
var sizeBins = func() (labels [64]string) {
	for k := range labels {
		labels[k] = strconv.FormatUint(1<<k, 10) + "B"
	}
	return labels
}()

// SizeBin assigns an article size to its histogram bin, the least power
// of two at or above it (1B for any size up to 1): the WikiLength
// binning. A size above 2^62 is in the 2^63 bin, which no int holds but
// its label does.
//
//approx:hotpath
func SizeBin(size int) string {
	if size <= 1 {
		return sizeBins[0]
	}
	return sizeBins[bits.Len64(uint64(size-1))]
}

// ---------------------------------------------------------------------------
// Wikipedia access log
// ---------------------------------------------------------------------------

// AccessLog describes a synthetic Wikipedia HTTP access log. Each line
// is "epochSecond<TAB>project<TAB>page<TAB>bytes".
type AccessLog struct {
	Blocks        int // blocks == map tasks (~740 for "1 week" in the paper)
	LinesPerBlock int // log entries per block
	Projects      int // project universe (>2,640 in the paper)
	Pages         int // page universe
	Seed          int64
}

// DefaultAccessLog is a laptop-scale analog of the one-week 46GB log:
// 46GB of compressed blocks is ~740 map tasks (the paper's week runs
// in roughly nine waves on the 80-slot cluster), with per-block record
// counts scaled down to laptop size.
func DefaultAccessLog() AccessLog {
	return AccessLog{Blocks: 740, LinesPerBlock: 2000, Projects: 400, Pages: 20000, Seed: 2}
}

// ScaledAccessLog returns the log descriptor for a Table 2 period: the
// block count grows linearly with the number of days, exactly like the
// paper's 92 maps/day... 6,500 maps/year series (scaled down by
// blocksPerDay).
func ScaledAccessLog(days, blocksPerDay, linesPerBlock int, seed int64) AccessLog {
	return AccessLog{
		Blocks:        days * blocksPerDay,
		LinesPerBlock: linesPerBlock,
		Projects:      400,
		Pages:         20000,
		Seed:          seed,
	}
}

// File materializes the log as a generated dfs file. The generator
// literal runs once per block read, per line — hot-path rules apply.
//
//approx:hotpath
func (a AccessLog) File(name string) *dfs.File {
	if a.Blocks <= 0 {
		a.Blocks = 1
	}
	if a.LinesPerBlock <= 0 {
		a.LinesPerBlock = 1000
	}
	if a.Projects <= 0 {
		a.Projects = 10
	}
	if a.Pages <= 0 {
		a.Pages = 100
	}
	gen := func(idx int, r intSource, bw io.Writer) error {
		rr := stats.NewRand(r.Int63())
		projZipf := stats.NewZipf(rr, 1.4, uint64(a.Projects))
		pageZipf := stats.NewZipf(rr, 1.2, uint64(a.Pages))
		sizes := stats.NewParetoInt(rr, 800, 1.4, 5_000_000)
		// Blocks are time-contiguous: entries in block idx carry
		// timestamps from that slice of the period (locality again).
		base := int64(idx) * 3600
		var lb lineBuf
		for i := 0; i < a.LinesPerBlock; i++ {
			ts := base + rr.Int63()%3600
			proj := projZipf.Next()
			page := pageZipf.Next()
			bytes := sizes.Next()
			lb.reset()
			lb.int(ts)
			lb.str("\tproj")
			lb.uint(proj)
			lb.str("\tpage")
			lb.uint(page)
			lb.byte('\t')
			lb.int(int64(bytes))
			lb.byte('\n')
			if err := lb.flush(bw); err != nil {
				return err
			}
		}
		return nil
	}
	estSize := int64(a.LinesPerBlock) * 32
	return dfs.GeneratedFile(name, a.Blocks, a.Seed, estSize, int64(a.LinesPerBlock), gen)
}

// Access is one parsed access-log record.
type Access struct {
	Epoch   int64
	Project string
	Page    string
	Bytes   int
}

// ParseAccess parses one access-log line: fields are cut in place, no
// slice, no error value.
func ParseAccess(line string) (a Access, ok bool) {
	ok = a.Parse(line)
	return a, ok
}

// Parse is ParseAccess into a record the caller owns, left untouched
// when the line is rejected. It is the spelling for a mapper, which
// parses once per record of every access-log job: a 56-byte result
// handed back in registers is spilled word by word and reloaded two
// words at a time, and the reload waits for the stores to retire. The
// three field ends come off the line's tab bitmap (cut.go), so the two
// integer fields convert side by side.
//
//approx:hotpath
func (a *Access) Parse(line string) bool {
	if uint(len(line)-8) > 64-8 {
		return a.parseCut(line)
	}
	m := tabBits(line)
	t0 := bits.TrailingZeros64(m)
	m &= m - 1
	t1 := bits.TrailingZeros64(m)
	m &= m - 1
	t2 := bits.TrailingZeros64(m)
	if t2 >= len(line) {
		return false
	}
	p0, p3 := max(t0, 8)-8, len(line)-8
	ts, ok0 := digitsIn(zerocopy.Load64(line[p0:]), p0, 0, t0)
	b, ok3 := digitsIn(zerocopy.Load64(line[p3:]), p3, t2+1, len(line))
	if !ok0 || !ok3 {
		return a.parseCut(line)
	}
	a.Epoch, a.Project, a.Page, a.Bytes = ts, line[t0+1:t1], line[t1+1:t2], int(b)
	return true
}

// parseCut is Parse the general way, for a line outside the tab
// bitmap's 8 to 64 bytes or an integer field that is not one to eight
// plain digits: each cutter starts where the one before stopped.
//
//approx:hotpath
func (a *Access) parseCut(line string) bool {
	ts, t0, ok0 := cutInt(line, 0, 64)
	t1 := cutField(line, t0+1)
	t2 := cutField(line, t1+1)
	b, end, ok3 := cutInt(line, t2+1, strconv.IntSize)
	if !ok0 || !ok3 || t2 == len(line) || end != len(line) {
		return false
	}
	a.Epoch, a.Project, a.Page, a.Bytes = ts, line[t0+1:t1], line[t1+1:t2], int(b)
	return true
}

// ---------------------------------------------------------------------------
// Wikipedia edit log
// ---------------------------------------------------------------------------

// EditLog describes a synthetic Wikipedia edit-history log, the input
// for the sketch-plane queries (distinct editors per project, editor
// membership). Each line is "epochSecond<TAB>project<TAB>editor<TAB>page".
// Editor activity is Zipf-skewed (a core of prolific editors plus a
// long tail), and each block additionally biases toward a per-block
// window of the editor universe — the temporal locality real edit
// history has, which keeps per-task distinct counts well below the
// global count and makes the multi-stage composition observable.
type EditLog struct {
	Blocks        int
	LinesPerBlock int
	Projects      int // project universe
	Editors       int // editor universe
	Pages         int // page universe
	Seed          int64
}

// DefaultEditLog is the laptop-scale edit history paired with
// DefaultAccessLog: fewer blocks (edits are rarer than reads), the
// same project universe shape.
func DefaultEditLog() EditLog {
	return EditLog{Blocks: 120, LinesPerBlock: 2000, Projects: 40, Editors: 5000, Pages: 20000, Seed: 4}
}

// File materializes the edit log as a generated dfs file. The
// generator literal runs once per block read, per line — hot-path
// rules apply.
//
//approx:hotpath
func (e EditLog) File(name string) *dfs.File {
	if e.Blocks <= 0 {
		e.Blocks = 1
	}
	if e.LinesPerBlock <= 0 {
		e.LinesPerBlock = 1000
	}
	if e.Projects <= 0 {
		e.Projects = 10
	}
	if e.Editors <= 0 {
		e.Editors = 100
	}
	if e.Pages <= 0 {
		e.Pages = 100
	}
	gen := func(idx int, r intSource, bw io.Writer) error {
		rr := stats.NewRand(r.Int63())
		projZipf := stats.NewZipf(rr, 1.3, uint64(e.Projects))
		editorZipf := stats.NewZipf(rr, 1.1, uint64(e.Editors))
		pageZipf := stats.NewZipf(rr, 1.2, uint64(e.Pages))
		// Temporal locality: half the edits come from a sliding window
		// of the editor universe anchored at this block.
		window := e.Editors / 10
		if window < 1 {
			window = 1
		}
		winBase := (idx * window / 2) % e.Editors
		base := int64(idx) * 7200
		var lb lineBuf
		for i := 0; i < e.LinesPerBlock; i++ {
			ts := base + rr.Int63()%7200
			proj := projZipf.Next()
			var editor uint64
			if rr.Intn(2) == 0 {
				editor = uint64((winBase + rr.Intn(window)) % e.Editors)
			} else {
				editor = editorZipf.Next()
			}
			page := pageZipf.Next()
			lb.reset()
			lb.int(ts)
			lb.str("\tproj")
			lb.uint(proj)
			lb.str("\ted")
			lb.uint(editor)
			lb.str("\tpage")
			lb.uint(page)
			lb.byte('\n')
			if err := lb.flush(bw); err != nil {
				return err
			}
		}
		return nil
	}
	estSize := int64(e.LinesPerBlock) * 30
	return dfs.GeneratedFile(name, e.Blocks, e.Seed, estSize, int64(e.LinesPerBlock), gen)
}

// Edit is one parsed edit-log record.
type Edit struct {
	Epoch   int64
	Project string
	Editor  string
	Page    string
}

// ParseEdit parses one edit-log line. The page is the rest of the line
// after the third tab, further tabs included.
//
//approx:hotpath
func ParseEdit(line string) (Edit, bool) {
	if uint(len(line)-8) > 64-8 {
		return parseEditCut(line)
	}
	m := tabBits(line)
	t0 := bits.TrailingZeros64(m)
	m &= m - 1
	t1 := bits.TrailingZeros64(m)
	m &= m - 1
	t2 := bits.TrailingZeros64(m)
	if t2 >= len(line) {
		return Edit{}, false
	}
	p0 := max(t0, 8) - 8
	ts, ok := digitsIn(zerocopy.Load64(line[p0:]), p0, 0, t0)
	if !ok {
		return parseEditCut(line)
	}
	return Edit{Epoch: ts, Project: line[t0+1 : t1], Editor: line[t1+1 : t2], Page: line[t2+1:]}, true
}

// parseEditCut is ParseEdit the general way, as (*Access).parseCut is
// Parse.
//
//approx:hotpath
func parseEditCut(line string) (Edit, bool) {
	ts, t0, ok0 := cutInt(line, 0, 64)
	t1 := cutField(line, t0+1)
	t2 := cutField(line, t1+1)
	if !ok0 || t2 == len(line) {
		return Edit{}, false
	}
	return Edit{Epoch: ts, Project: line[t0+1 : t1], Editor: line[t1+1 : t2], Page: line[t2+1:]}, true
}

// ---------------------------------------------------------------------------
// Department web-server log
// ---------------------------------------------------------------------------

// WebLog describes a synthetic departmental web-server access log
// (Section 5.4): stable request rates following a weekly pattern, and
// a small set of attacker clients producing rare attack requests. Each
// line is "client<TAB>hourOfWeek<TAB>path<TAB>bytes<TAB>agent<TAB>attack"
// with attack being a pattern name or "-".
type WebLog struct {
	Blocks        int // one per week in the paper (8 weeks)
	LinesPerBlock int
	Clients       int
	Attackers     int     // clients that also send attacks
	AttackRate    float64 // fraction of an attacker's lines that are attacks
	Seed          int64
}

// DefaultWebLog is a laptop-scale analog of the 80-week log (80 blocks
// in the paper; we keep their one-block-per-week structure).
func DefaultWebLog() WebLog {
	return WebLog{Blocks: 80, LinesPerBlock: 8000, Clients: 3000, Attackers: 40, AttackRate: 0.02, Seed: 3}
}

var browsers = []string{"Firefox", "Chrome", "Safari", "IE", "Edge", "curl", "bot"}

var attackPatterns = []string{"sqlinj", "xss", "pathtrav", "shellshock"}

// hourWeight is the weekly request-rate shape: business hours on
// weekdays dominate; nights and weekends are quieter. Rates vary by
// roughly a third, matching Figure 10(b)'s stability.
func hourWeight(hourOfWeek int) float64 {
	day := hourOfWeek / 24
	hour := hourOfWeek % 24
	w := 1.0
	if day >= 5 {
		w *= 0.85 // weekend dip
	}
	if hour >= 9 && hour <= 18 {
		w *= 1.25 // office hours
	} else if hour < 6 {
		w *= 0.85
	}
	return w
}

// File materializes the web log as a generated dfs file. The generator
// literal runs once per block read, per line — hot-path rules apply.
//
//approx:hotpath
func (w WebLog) File(name string) *dfs.File {
	if w.Blocks <= 0 {
		w.Blocks = 1
	}
	if w.LinesPerBlock <= 0 {
		w.LinesPerBlock = 1000
	}
	if w.Clients <= 0 {
		w.Clients = 100
	}
	if w.Attackers < 0 {
		w.Attackers = 0
	}
	if w.AttackRate <= 0 {
		w.AttackRate = 0.01
	}
	// Precompute the hour-of-week sampling distribution.
	var cum [168]float64
	total := 0.0
	for h := 0; h < 168; h++ {
		total += hourWeight(h)
		cum[h] = total
	}
	gen := func(idx int, r intSource, bw io.Writer) error {
		rr := stats.NewRand(r.Int63())
		clientZipf := stats.NewZipf(rr, 1.1, uint64(w.Clients))
		pathZipf := stats.NewZipf(rr, 1.3, 2000)
		sizes := stats.NewParetoInt(rr, 500, 1.5, 2_000_000)
		var lb lineBuf
		for i := 0; i < w.LinesPerBlock; i++ {
			// Draw the hour of week from the weekly shape.
			u := rr.Float64() * total
			hour := 0
			for hour < 167 && cum[hour] < u {
				hour++
			}
			client := int(clientZipf.Next())
			path := pathZipf.Next()
			bytes := sizes.Next()
			agent := browsers[int(rr.Int63())%len(browsers)]
			attack := "-"
			if client <= w.Attackers && rr.Float64() < w.AttackRate {
				attack = attackPatterns[int(rr.Int63())%len(attackPatterns)]
			}
			lb.reset()
			lb.byte('c')
			lb.int(int64(client))
			lb.byte('\t')
			lb.int(int64(hour))
			lb.str("\t/p")
			lb.uint(path)
			lb.byte('\t')
			lb.int(int64(bytes))
			lb.byte('\t')
			lb.str(agent)
			lb.byte('\t')
			lb.str(attack)
			lb.byte('\n')
			if err := lb.flush(bw); err != nil {
				return err
			}
		}
		return nil
	}
	estSize := int64(w.LinesPerBlock) * 40
	return dfs.GeneratedFile(name, w.Blocks, w.Seed, estSize, int64(w.LinesPerBlock), gen)
}

// WebAccess is one parsed web-server log record.
type WebAccess struct {
	Client     string
	HourOfWeek int
	Path       string
	Bytes      int
	Agent      string
	Attack     string // "-" when the request is benign
}

// ParseWebAccess parses one web-server log line. The attack field is
// the rest of the line after the fifth tab.
//
//approx:hotpath
func ParseWebAccess(line string) (WebAccess, bool) {
	if uint(len(line)-8) > 64-8 {
		return parseWebAccessCut(line)
	}
	m := tabBits(line)
	t0 := bits.TrailingZeros64(m)
	m &= m - 1
	t1 := bits.TrailingZeros64(m)
	m &= m - 1
	t2 := bits.TrailingZeros64(m)
	m &= m - 1
	t3 := bits.TrailingZeros64(m)
	m &= m - 1
	t4 := bits.TrailingZeros64(m)
	if t4 >= len(line) {
		return WebAccess{}, false
	}
	p1, p3 := max(t1, 8)-8, max(t3, 8)-8
	hour, ok1 := digitsIn(zerocopy.Load64(line[p1:]), p1, t0+1, t1)
	b, ok3 := digitsIn(zerocopy.Load64(line[p3:]), p3, t2+1, t3)
	if !ok1 || !ok3 {
		return parseWebAccessCut(line)
	}
	if hour >= 168 {
		return WebAccess{}, false
	}
	return WebAccess{
		Client:     line[:t0],
		HourOfWeek: int(hour),
		Path:       line[t1+1 : t2],
		Bytes:      int(b),
		Agent:      line[t3+1 : t4],
		Attack:     line[t4+1:],
	}, true
}

// parseWebAccessCut is ParseWebAccess the general way, as
// (*Access).parseCut is Parse.
//
//approx:hotpath
func parseWebAccessCut(line string) (WebAccess, bool) {
	t0 := cutField(line, 0)
	hour, t1, ok1 := cutInt(line, t0+1, strconv.IntSize)
	t2 := cutField(line, t1+1)
	b, t3, ok3 := cutInt(line, t2+1, strconv.IntSize)
	t4 := cutField(line, t3+1)
	if !ok1 || !ok3 || t4 == len(line) || hour < 0 || hour >= 168 {
		return WebAccess{}, false
	}
	return WebAccess{
		Client:     line[:t0],
		HourOfWeek: int(hour),
		Path:       line[t1+1 : t2],
		Bytes:      int(b),
		Agent:      line[t3+1 : t4],
		Attack:     line[t4+1:],
	}, true
}

// IsAttack reports whether the record is an attack request.
func (w WebAccess) IsAttack() bool { return w.Attack != "-" }

// ---------------------------------------------------------------------------
// Optimization seeds (DC placement and similar search workloads)
// ---------------------------------------------------------------------------

// SearchSeeds builds an input file with one search-seed line per map
// task ("seed <n>"), for jobs where every map performs an independent
// randomized search (the DC-placement pattern).
func SearchSeeds(name string, maps int, seed int64) *dfs.File {
	if maps <= 0 {
		maps = 1
	}
	gen := func(idx int, r intSource, bw io.Writer) error {
		_, err := fmt.Fprintf(bw, "seed\t%d\n", r.Int63())
		return err
	}
	return dfs.GeneratedFile(name, maps, seed, 24, 1, gen)
}

// ParseSeed extracts the seed from a SearchSeeds line.
//
//approx:hotpath
func ParseSeed(line string) (int64, bool) {
	t0 := cutField(line, 0)
	seed, end, ok := cutInt(line, t0+1, 64)
	if !ok || end != len(line) || line[:t0] != "seed" {
		return 0, false
	}
	return seed, true
}
